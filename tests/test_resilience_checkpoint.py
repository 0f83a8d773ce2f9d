"""Crash-recovery tests: streaming equivalence and kill-and-resume.

The contract under test: the online engine fed any chunking of the
same records — killed and restored from a JSON checkpoint any number of
times — produces predictions byte-identical to the reference batch
engine in ``tests/reference/``.
"""

import json

import pytest

from repro import ELSA
from repro.prediction.scoreboard import OnlineScoreboard
from repro.resilience.checkpoint import (
    ResumableRun,
    load_checkpoint,
    save_checkpoint,
)
from repro.signals.outliers import decode_ring
from tests.reference.engines import batch_predict


def pred_json(predictions):
    return json.dumps([p.to_dict() for p in predictions])


@pytest.fixture(scope="module")
def batch_reference(fitted_elsa, small_scenario):
    """Reference batch-engine predictions plus the post-fit HELO state.

    ``fitted_elsa`` is session-scoped and online classification mutates
    its HELO state, so each test snapshots the state up front and the
    fixture restores it afterwards.
    """
    helo_state = fitted_elsa.online_state_dict()
    stream = fitted_elsa.make_stream(
        small_scenario.records,
        small_scenario.train_end,
        small_scenario.t_end,
    )
    batch, _ = batch_predict(fitted_elsa.hybrid_predictor(), stream)
    fitted_elsa.restore_online_state(helo_state)
    yield batch, helo_state
    fitted_elsa.restore_online_state(helo_state)


@pytest.fixture(autouse=True)
def _fresh_helo(fitted_elsa, batch_reference):
    """Reset the shared pipeline's HELO state around every test."""
    _, helo_state = batch_reference
    fitted_elsa.restore_online_state(helo_state)
    yield
    fitted_elsa.restore_online_state(helo_state)


class TestStreamingEquivalence:
    def test_streaming_matches_batch_byte_for_byte(
        self, fitted_elsa, small_scenario, batch_reference
    ):
        batch, _ = batch_reference
        run = ResumableRun(
            fitted_elsa, small_scenario.train_end, small_scenario.t_end
        )
        streamed = run.run(small_scenario.records)
        assert pred_json(streamed) == pred_json(batch)

    def test_chunking_is_irrelevant(
        self, fitted_elsa, small_scenario, batch_reference
    ):
        batch, helo_state = batch_reference
        run = ResumableRun(
            fitted_elsa, small_scenario.train_end, small_scenario.t_end,
            checkpoint_every=137,  # awkward chunk size on purpose
        )
        streamed = run.run(small_scenario.records)
        assert pred_json(streamed) == pred_json(batch)


class TestKillAndResume:
    def test_kill_and_resume_is_byte_identical(
        self, fitted_elsa, small_scenario, batch_reference, tmp_path
    ):
        batch, helo_state = batch_reference
        ckpt = tmp_path / "online.ckpt.json"

        # first process: dies after 1500 records
        run1 = ResumableRun(
            fitted_elsa,
            small_scenario.train_end,
            small_scenario.t_end,
            checkpoint_path=ckpt,
            checkpoint_every=500,
        )
        run1.process(small_scenario.records, limit=1500)
        assert run1.predictor.n_records_fed == 1500
        del run1  # the "crash"

        # second process: fresh predictor restored from the checkpoint
        fitted_elsa.restore_online_state(helo_state)
        state = load_checkpoint(ckpt)
        assert state["n_records_done"] == 1500
        run2 = ResumableRun.resume(fitted_elsa, state)
        assert run2.predictor.n_records_fed == 1500
        resumed = run2.run(small_scenario.records)
        assert pred_json(resumed) == pred_json(batch)

    def test_checkpoint_with_list_rings_resumes_byte_identically(
        self, fitted_elsa, small_scenario, batch_reference, tmp_path
    ):
        """A checkpoint whose detector rings are JSON float lists, as
        they were written before the ring text, loads to the same
        predictor state and resumes to the uninterrupted output."""
        batch, helo_state = batch_reference
        ckpt = tmp_path / "text.json"
        run = ResumableRun(
            fitted_elsa, small_scenario.train_end, small_scenario.t_end,
            checkpoint_path=ckpt, checkpoint_every=500,
        )
        run.process(small_scenario.records, limit=1500)
        data = json.loads(ckpt.read_text())
        n_rings = 0
        for det in data["predictor"]["detectors"].values():
            if det["kind"] == "median":
                for key in ("raw", "corr"):
                    det["dual"][key] = decode_ring(det["dual"][key]).tolist()
                    n_rings += 1
        assert n_rings
        listed = tmp_path / "lists.json"
        listed.write_text(json.dumps(data) + "\n")

        fitted_elsa.restore_online_state(helo_state)
        from_text = ResumableRun.resume(fitted_elsa, load_checkpoint(ckpt))
        fitted_elsa.restore_online_state(helo_state)
        from_lists = ResumableRun.resume(
            fitted_elsa, load_checkpoint(listed)
        )
        assert json.dumps(from_lists.predictor.state_dict()) == json.dumps(
            from_text.predictor.state_dict()
        )
        resumed = from_lists.run(small_scenario.records)
        assert pred_json(resumed) == pred_json(batch)

    def test_double_kill(
        self, fitted_elsa, small_scenario, batch_reference, tmp_path
    ):
        """Two crashes in one run still converge to the batch output."""
        batch, helo_state = batch_reference
        ckpt = tmp_path / "ck.json"
        run = ResumableRun(
            fitted_elsa, small_scenario.train_end, small_scenario.t_end,
            checkpoint_path=ckpt, checkpoint_every=400,
        )
        run.process(small_scenario.records, limit=800)
        fitted_elsa.restore_online_state(helo_state)
        run = ResumableRun.resume(
            fitted_elsa, load_checkpoint(ckpt),
            checkpoint_path=ckpt, checkpoint_every=400,
        )
        run.process(small_scenario.records, limit=1200)
        fitted_elsa.restore_online_state(helo_state)
        run = ResumableRun.resume(fitted_elsa, load_checkpoint(ckpt))
        resumed = run.run(small_scenario.records)
        assert pred_json(resumed) == pred_json(batch)

    def test_scoreboard_attached_after_resume_sees_the_whole_run(
        self, fitted_elsa, small_scenario, batch_reference, tmp_path
    ):
        """A scoreboard attached to a resumed run (as ``predict --truth
        --resume-from`` does) ends where the uninterrupted run's does:
        the predictions the checkpoint restores are registered with
        it."""
        _, helo_state = batch_reference
        sc = small_scenario

        def score(run):
            board = OnlineScoreboard(faults=sc.test_faults)
            run.predictor.attach_scoreboard(board)
            run.run(sc.records)
            return board.snapshot()

        expect = score(ResumableRun(fitted_elsa, sc.train_end, sc.t_end))
        fitted_elsa.restore_online_state(helo_state)
        ckpt = tmp_path / "ck.json"
        run = ResumableRun(
            fitted_elsa, sc.train_end, sc.t_end,
            checkpoint_path=ckpt, checkpoint_every=3000,
        )
        run.process(sc.records, limit=12000)
        fitted_elsa.restore_online_state(helo_state)
        state = load_checkpoint(ckpt)
        assert state["predictor"]["predictions"]
        assert score(ResumableRun.resume(fitted_elsa, state)) == expect

    def test_checkpoint_is_plain_json(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        helo_state = fitted_elsa.online_state_dict()
        try:
            ckpt = tmp_path / "ck.json"
            run = ResumableRun(
                fitted_elsa, small_scenario.train_end, small_scenario.t_end
            )
            run.process(small_scenario.records, limit=300)
            save_checkpoint(ckpt, run.predictor,
                            fitted_elsa.online_state_dict())
            data = json.loads(ckpt.read_text())  # must parse as JSON
            assert data["kind"] == "elsa-online-checkpoint"
            assert data["n_records_done"] == 300
            assert data["helo"] is not None
            assert data["predictor"]["n_fed"] == 300
        finally:
            fitted_elsa.restore_online_state(helo_state)

    def test_geometry_mismatch_rejected(
        self, fitted_elsa, small_scenario, tmp_path
    ):
        helo_state = fitted_elsa.online_state_dict()
        try:
            ckpt = tmp_path / "ck.json"
            run = ResumableRun(
                fitted_elsa, small_scenario.train_end, small_scenario.t_end
            )
            run.process(small_scenario.records, limit=100)
            save_checkpoint(ckpt, run.predictor,
                            fitted_elsa.online_state_dict())
            state = load_checkpoint(ckpt)
            other = fitted_elsa.streaming_predictor(
                small_scenario.train_end, small_scenario.t_end + 9999.0
            )
            with pytest.raises(ValueError, match="mismatch"):
                other.load_state(state["predictor"])

            # a detectors block that does not match the model's anchors,
            # or that the bank cannot hold, is rejected before any state
            # of the target engine changes
            pstate = state["predictor"]
            dets = pstate["detectors"]
            anchors = sorted(dets, key=int)
            medians = [t for t in anchors if dets[t]["kind"] == "median"]
            assert len(anchors) >= 2 and medians
            missing = {t: d for t, d in dets.items() if t != anchors[0]}
            foreign = dict(dets)
            foreign[str(max(map(int, anchors)) + 1)] = dets[anchors[0]]
            off_by_one = json.loads(json.dumps(dets))
            off_by_one[medians[0]]["seen"] += 1
            same = fitted_elsa.streaming_predictor(
                small_scenario.train_end, small_scenario.t_end
            )
            fresh = json.dumps(same.state_dict())
            for block in (missing, foreign, off_by_one):
                with pytest.raises(
                    ValueError, match="checkpoint mismatch: detectors"
                ):
                    same.load_state(dict(pstate, detectors=block))
                assert json.dumps(same.state_dict()) == fresh
        finally:
            fitted_elsa.restore_online_state(helo_state)

    def test_wrong_file_rejected(self, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not an online checkpoint"):
            load_checkpoint(bad)
