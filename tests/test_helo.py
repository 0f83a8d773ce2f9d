"""Tests for HELO template mining: tokenizer, miner, table, online."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.helo import (
    HELOMiner,
    MinedTemplate,
    OnlineHELO,
    TemplateTable,
    is_variable_token,
    tokenize,
)
from repro.helo.miner import MinerConfig
from repro.helo.online import OnlineConfig, bootstrap_online
from repro.helo.tokenizer import normalize_token, normalize_tokens, signature


class TestTokenizer:
    @pytest.mark.parametrize("token", [
        "123", "-5", "3.14", "0xdeadbeef", "0x0", "/bgl/a/log.3",
        "1a2b", "5e3a91",
    ])
    def test_variable_tokens(self, token):
        assert is_variable_token(token)

    @pytest.mark.parametrize("token", [
        "error", "be", "cafe", "deadbeef", "L3", "plb.3", "1:136",
        "mc0:", "ido",
    ])
    def test_constant_tokens(self, token):
        # Hex-letter-only words ("cafe", "deadbeef") stay constant —
        # bare hex needs a digit; mixed shapes ("plb.3", "1:136") are
        # left to the clusterer.
        assert not is_variable_token(token)

    def test_tokenize_lowercases(self):
        assert tokenize("L3 Major ERROR") == ["l3", "major", "error"]

    def test_normalize_numbers(self):
        assert normalize_tokens(["seen", "42", "times"]) == ["seen", "*", "times"]

    def test_normalize_keeps_kv_key(self):
        # Register dumps keep the key: lr:0x5e3a91 -> lr:* (paper's own
        # template notation).
        assert normalize_token("lr:0x5e3a91") == "lr:*"
        assert normalize_token("ctr:12345") == "ctr:*"
        assert normalize_token("plb.3") == "plb.*"

    def test_normalize_plain_words_untouched(self):
        assert normalize_token("midplane") == "midplane"

    def test_signature(self):
        toks = tokenize("1234 error in queue")
        assert signature(toks) == (4, "error")


class TestMinedTemplate:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MinedTemplate(tokens=())

    def test_match_constants(self):
        t = MinedTemplate(tokens=("error", None, "queue"))
        assert t.matches_tokens(["error", "xyz", "queue"])
        assert not t.matches_tokens(["error", "xyz", "stack"])
        assert not t.matches_tokens(["error", "queue"])

    def test_matches_message_normalizes(self):
        t = MinedTemplate(tokens=("count", "*", "done"))
        # stored wildcard token "*" only matches literal "*"; variable
        # positions are None
        t2 = MinedTemplate(tokens=("count", None, "done"))
        assert t2.matches("count 42 done")

    def test_skeleton(self):
        t = MinedTemplate(tokens=("a", None, "c"))
        assert t.skeleton() == "a * c"

    def test_specificity(self):
        t = MinedTemplate(tokens=("a", None, "c", None))
        assert t.specificity() == pytest.approx(0.5)

    def test_merge(self):
        a = MinedTemplate(tokens=("x", "y", "z"), support=2)
        b = MinedTemplate(tokens=("x", "q", "z"), support=3)
        m = a.merge(b)
        assert m.tokens == ("x", None, "z")
        assert m.support == 5

    def test_merge_length_mismatch(self):
        a = MinedTemplate(tokens=("x",))
        b = MinedTemplate(tokens=("x", "y"))
        with pytest.raises(ValueError):
            a.merge(b)


class TestTemplateTable:
    def test_add_assigns_ids(self):
        table = TemplateTable()
        t0 = table.add(MinedTemplate(tokens=("a", "b")))
        t1 = table.add(MinedTemplate(tokens=("c",)))
        assert (t0.template_id, t1.template_id) == (0, 1)
        assert len(table) == 2

    def test_classify(self):
        table = TemplateTable([
            MinedTemplate(tokens=("error", None)),
            MinedTemplate(tokens=("ok", "fine")),
        ])
        assert table.classify("error 42") == 0
        assert table.classify("ok fine") == 1
        assert table.classify("something else entirely") is None

    def test_replace_preserves_id(self):
        table = TemplateTable([MinedTemplate(tokens=("a", "b"))])
        table.replace(0, MinedTemplate(tokens=("a", None)))
        assert table[0].tokens == ("a", None)
        assert table.classify("a zzz") == 0

    def test_replace_length_change_rejected(self):
        table = TemplateTable([MinedTemplate(tokens=("a", "b"))])
        with pytest.raises(ValueError):
            table.replace(0, MinedTemplate(tokens=("a",)))


class TestHELOMiner:
    def test_recovers_simple_templates(self):
        msgs = (
            [f"error in directory 0x{i:04x}" for i in range(20)]
            + [f"job {i} finished ok" for i in range(20)]
        )
        table = HELOMiner().fit(msgs)
        skels = set(table.skeletons())
        assert "error in directory *" in skels
        assert "job * finished ok" in skels

    def test_fit_transform_classifies_everything(self):
        msgs = [f"alpha {i} beta" for i in range(10)] + ["gamma delta"] * 5
        table, ids = HELOMiner().fit_transform(msgs)
        assert len(ids) == len(msgs)
        assert all(i is not None for i in ids)

    def test_vocabulary_split(self):
        msgs = []
        for verb in ("started", "stopped", "paused"):
            msgs += [f"daemon {verb} code {i}" for i in range(10)]
        table = HELOMiner().fit(msgs)
        skels = set(table.skeletons())
        assert {"daemon started code *", "daemon stopped code *",
                "daemon paused code *"} <= skels

    def test_variable_word_field_wildcarded(self):
        rng = np.random.default_rng(0)
        words = ["".join(chr(97 + c) for c in rng.integers(0, 26, 6))
                 for _ in range(40)]
        msgs = [f"link {w} is down" for w in words]
        table = HELOMiner().fit(msgs)
        assert table.skeletons() == ["link * is down"]

    def test_support_counts(self):
        # Both shapes are frequent enough for the value-support rescue to
        # split a two-shape group (see MinerConfig.min_value_support).
        msgs = ["a b c"] * 7 + ["x y z"] * 6
        table = HELOMiner().fit(msgs)
        supports = sorted(t.support for t in table)
        assert supports == [6, 7]

    def test_rare_shape_pair_merges(self):
        # With one shape below the support rescue, a two-shape group
        # cannot be split and generalizes instead — by design.
        msgs = ["a b c"] * 7 + ["x y z"] * 2
        table = HELOMiner().fit(msgs)
        assert len(table) == 1
        assert table[0].support == 9

    def test_empty_messages_skipped(self):
        table = HELOMiner().fit(["", "  ", "real message"])
        assert len(table) == 1

    def test_miner_on_catalog_no_oversplit(self, small_scenario):
        """No ground-truth event type splits across mined templates."""
        from collections import defaultdict
        train = small_scenario.train_records[:20000]
        table, ids = HELOMiner().fit_transform([r.message for r in train])
        by_true = defaultdict(set)
        for r, tid in zip(train, ids):
            by_true[r.event_type].add(tid)
        split = [k for k, v in by_true.items() if len(v) > 1]
        assert split == []

    def test_miner_on_catalog_mostly_pure(self, small_scenario):
        from collections import Counter, defaultdict
        train = small_scenario.train_records[:20000]
        table, ids = HELOMiner().fit_transform([r.message for r in train])
        by_tid = defaultdict(Counter)
        for r, tid in zip(train, ids):
            by_tid[tid][r.event_type] += 1
        pure = sum(1 for c in by_tid.values() if len(c) == 1)
        assert pure / len(by_tid) > 0.7

    @given(st.lists(
        st.text(alphabet="abc ", min_size=1, max_size=20), min_size=1,
        max_size=30,
    ))
    @settings(max_examples=30, deadline=None)
    def test_every_training_message_classifies(self, msgs):
        # a message with no tokens has no template; every other one has
        table, ids = HELOMiner().fit_transform(msgs)
        assert [i is None for i in ids] == [not m.split() for m in msgs]


class TestOnlineHELO:
    def _table(self):
        return TemplateTable([
            MinedTemplate(tokens=("error", "in", None)),
            MinedTemplate(tokens=("job", None, "done")),
        ])

    def test_hit(self):
        online = OnlineHELO(self._table())
        assert online.observe("error in 0x12") == 0
        assert online.observe("job 7 done") == 1

    def test_generalize_near_miss(self):
        online = OnlineHELO(self._table())
        tid = online.observe("error on 0x12")  # one constant differs
        assert tid == 0
        assert online.table[0].tokens == ("error", None, None)
        assert online.updated_ids == [0]

    def test_mint_new_template(self):
        online = OnlineHELO(
            self._table(),
            OnlineConfig(new_template_min_evidence=3),
        )
        results = [
            online.observe(f"disk sd{c} failed badly now")
            for c in "abc"
        ]
        # evidence accumulates, then a template appears
        assert results[-1] is not None
        new_id = results[-1]
        assert online.table[new_id].matches("disk sdq failed badly now")

    def test_buffer_capped(self):
        online = OnlineHELO(
            TemplateTable(),
            OnlineConfig(new_template_min_evidence=10**6, buffer_cap=16),
        )
        for i in range(100):
            # distinct shapes that never reach minting evidence
            online.observe(f"shape{i} alpha beta gamma")
        assert all(
            len(buf) <= 16 for buf in online._miss_buffer.values()
        )

    def test_bootstrap_online(self):
        msgs = [f"widget {i} exploded" for i in range(10)]
        online = bootstrap_online(msgs)
        assert online.observe("widget 99 exploded") is not None

    def test_stable_ids_across_updates(self):
        online = OnlineHELO(self._table())
        before = online.observe("error in 0xff")
        for c in "abc":
            online.observe(f"disk sd{c} failed badly now")
        after = online.observe("error in 0xff")
        assert before == after


class TestAdversarialMissFlood:
    """Hostile input must not grow memory or corrupt existing ids."""

    def test_varying_length_flood_bounded(self):
        cfg = OnlineConfig(
            new_template_min_evidence=10**6,
            buffer_cap=32,
            max_length_buckets=8,
        )
        online = OnlineHELO(TemplateTable(), cfg)
        # every message has a different token length AND novel shape: the
        # worst case for both the per-bucket cap and the bucket dict
        for i in range(2000):
            length = 1 + (i % 100)
            online.observe(" ".join(f"tok{i}x{j}" for j in range(length)))
        assert len(online._miss_buffer) <= cfg.max_length_buckets
        assert all(
            len(buf) <= cfg.buffer_cap
            for buf in online._miss_buffer.values()
        )

    def test_eviction_counted(self):
        from repro import obs

        obs.reset()
        cfg = OnlineConfig(
            new_template_min_evidence=10**6, max_length_buckets=4
        )
        online = OnlineHELO(TemplateTable(), cfg)
        for length in range(1, 20):
            online.observe(" ".join(f"w{length}q{j}" for j in range(length)))
        assert obs.counter("helo.online.buckets_evicted").value > 0

    def test_existing_ids_survive_flood(self):
        online = OnlineHELO(
            TemplateTable([
                MinedTemplate(tokens=("error", "in", None)),
                MinedTemplate(tokens=("job", None, "done")),
            ]),
            OnlineConfig(
                new_template_min_evidence=10**6,
                buffer_cap=16,
                max_length_buckets=4,
                generalize_max_mismatch=0,
            ),
        )
        before = online.observe("error in 0x12")
        tokens_before = online.table[before].tokens
        for i in range(1000):
            length = 4 + (i % 40)
            online.observe(" ".join(f"junkzz{i}p{j}" for j in range(length)))
        # the flood never rewired or corrupted the pre-existing template
        assert online.observe("error in 0x12") == before
        assert online.table[before].tokens == tokens_before
