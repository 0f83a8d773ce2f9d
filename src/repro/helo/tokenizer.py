"""Message tokenization and variable-token heuristics.

Real log-template miners first normalize obviously variable fields —
numbers, hexadecimal words, file paths, IP-ish tokens — because treating
every distinct number as a distinct word explodes the vocabulary.  The
same heuristics appear in HELO and in most published log parsers.
"""

from __future__ import annotations

import re
from typing import List, Tuple

_HEX_RE = re.compile(r"^(0x)?[0-9a-fA-F]+$")
_NUM_RE = re.compile(r"^[+-]?\d+(\.\d+)?$")
_PATH_RE = re.compile(r"^(/[\w.\-]+)+/?$")
_KV_RE = re.compile(r"^([A-Za-z_]+[.:=])((0x)?[0-9a-fA-F]*\d[0-9a-fA-F]*|\d+(\.\d+)?)$")


def is_variable_token(token: str) -> bool:
    """Heuristic: is this token almost certainly a variable field?

    Pure numbers, ``0x`` hex literals, digit-bearing hex words and
    filesystem paths are variable.  Tokens that merely *contain* digits
    in a non-hex shape (``1:136``) are left alone so the clustering step
    can decide from cross-message evidence.
    """
    if not token:
        return False
    if _NUM_RE.match(token):
        return True
    if _HEX_RE.match(token) and (
        token.startswith("0x")
        or (len(token) >= 4 and any(c.isdigit() for c in token))
    ):
        return True
    if _PATH_RE.match(token) and "/" in token:
        return True
    return False


def tokenize(message: str) -> List[str]:
    """Split a message into whitespace tokens, lowercased.

    Lowercasing matches HELO's case-insensitive clustering; the paper's
    template listings are all lowercase for the same reason.
    """
    return message.lower().split()


def raw_tokens(message: str) -> Tuple[str, ...]:
    """A message's raw (not lowercased) whitespace tokens, as a tuple.

    Every per-record token sequence a :class:`~repro.columnar.RecordBatch`
    carries, and the batch classifier reads, is built here.  A tuple and
    not a list because a batch keeps one per record for a whole pass:
    CPython's cyclic collector stops tracking a tuple of strings at the
    first young collection that sees it, but traces a list for as long as
    it lives, so a batch of ~130k records kept enough lists to push the
    heap into a full collection; its tuples are never promoted that far.
    """
    return tuple(message.split())


def normalize_token(token: str) -> str:
    """Canonical form of one token: itself, ``*``, or ``key:*``.

    Register-dump tokens like ``lr:0x5e3a91`` keep their key and
    wildcard the value (``lr:*``) — matching the paper's own template
    notation (``lr:* cr:* xer:* ctr:*``, ``PLB.*``).  Without this, every
    render of a key:value field is a distinct shape and the containing
    token-length group becomes unsplittable.
    """
    if is_variable_token(token):
        return "*"
    m = _KV_RE.match(token)
    if m:
        return m.group(1) + "*"
    return token


#: memo for :func:`normalize_token`.  The token vocabulary of a log
#: stream repeats heavily (the same daemons emit the same words), so the
#: regex cascade in :func:`is_variable_token` runs once per distinct
#: token instead of once per occurrence.  ``normalize_token`` is a pure
#: function of its argument, so caching cannot change results; the cache
#: is cleared wholesale when full, which keeps the hot vocabulary warm
#: while bounding memory against unbounded unique-id churn.
_NORM_CACHE: dict = {}
_NORM_CACHE_MAX = 1 << 16


def normalize_tokens(tokens: List[str]) -> List[str]:
    """Replace variable tokens with ``*`` (or ``key:*``) wildcards."""
    cache = _NORM_CACHE
    out = []
    for t in tokens:
        v = cache.get(t)
        if v is None:
            v = normalize_token(t)
            if len(cache) >= _NORM_CACHE_MAX:
                cache.clear()
            cache[t] = v
        out.append(v)
    return out


#: memo for the *raw* (un-lowercased) token → normalized form, used by
#: the columnar batch classifier so it can normalize straight from
#: :func:`raw_tokens` without building the lowercased message.
#: ``msg.lower().split() == [t.lower() for t in msg.split()]`` (Unicode
#: case mapping never creates or removes whitespace for str.split's
#: default separator set), so caching on the raw token is sound.
_RAW_NORM_CACHE: dict = {}


def normalize_raw_token(token: str) -> str:
    """Normalized form of one raw (not yet lowercased) token, memoized."""
    cache = _RAW_NORM_CACHE
    v = cache.get(token)
    if v is None:
        v = normalize_token(token.lower())
        if len(cache) >= _NORM_CACHE_MAX:
            cache.clear()
        cache[token] = v
    return v


def signature(tokens: List[str]) -> Tuple[int, str]:
    """Coarse pre-clustering key: (token count, first constant token).

    Messages in the same template always share their token count (the
    wildcards substitute single tokens in this model) and, in practice,
    their leading constant token; keying on both keeps cluster inputs
    small so the per-cluster mining stays cheap.
    """
    first = ""
    for t in tokens:
        if not is_variable_token(t):
            first = t
            break
    return len(tokens), first
