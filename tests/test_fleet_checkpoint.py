"""Checkpoint/resume: fingerprints, the store, and byte-identity.

The contract under test: an interrupted-then-resumed fleet run must
serialise **byte-identically** to the same spec run uninterrupted, at
any job count; a resume against a checkpoint written for a different
spec must refuse before running any shard; and a record torn by a crash
mid-write is dropped and repaired, never trusted.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.errors import EvaluationError
from repro.fleet import (
    CheckpointStore,
    Fleet,
    FleetSpec,
    parse_mix,
    scan_checkpoint,
)

from tests.conftest import FAST_MIX

SPEC = dict(sessions=8, seed=7, mix=FAST_MIX, shard_size=3)


def clean_json():
    """The reference output every resumed run must reproduce."""
    return Fleet(FleetSpec(**SPEC), jobs=1).run().to_json()


# ----------------------------------------------------------------------
# Spec fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_equal_specs_equal_fingerprints(self):
        assert FleetSpec(**SPEC).fingerprint() == FleetSpec(**SPEC).fingerprint()

    def test_execution_knobs_excluded(self):
        # Retry budget, timeout, and fault injection cannot change any
        # result, so retrying an interrupted run with different values
        # must still be resumable.
        base = FleetSpec(**SPEC).fingerprint()
        tweaked = FleetSpec(
            **SPEC, max_retries=5, shard_timeout_s=1.0,
            inject_crash={"shard": 0, "attempts": 1},
        )
        assert tweaked.fingerprint() == base

    @pytest.mark.parametrize(
        "override",
        [dict(sessions=9), dict(seed=8), dict(shard_size=4),
         dict(settle_s=2.0), dict(trace_level="full"),
         dict(mix=parse_mix("todo:greenweb"))],
    )
    def test_result_determining_fields_included(self, override):
        assert FleetSpec(**{**SPEC, **override}).fingerprint() != (
            FleetSpec(**SPEC).fingerprint()
        )

    def test_json_stable(self):
        fingerprint = FleetSpec(**SPEC).fingerprint()
        assert json.loads(json.dumps(fingerprint)) == fingerprint


# ----------------------------------------------------------------------
# The store itself
# ----------------------------------------------------------------------
def _partial(shard, sessions=3):
    return {"shard": shard, "sessions": sessions,
            "aggregate": {"marker": f"shard-{shard}"}}


class TestCheckpointStore:
    def test_fresh_writes_header_first(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        fingerprint = FleetSpec(**SPEC).fingerprint()
        with CheckpointStore.fresh(path, fingerprint):
            pass
        first = json.loads(open(path).readline())
        assert first["kind"] == "header"
        assert first["fingerprint"] == fingerprint

    def test_record_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1}) as store:
            store.record(_partial(0))
            store.record(_partial(2))
        header, completed, _ = scan_checkpoint(path)
        assert header["fingerprint"] == {"seed": 1}
        assert sorted(completed) == [0, 2]
        assert completed[2]["aggregate"] == {"marker": "shard-2"}

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.resume(path, {"seed": 1}) as store:
            assert store.completed == {}
        assert json.loads(open(path).readline())["kind"] == "header"

    def test_resume_empty_file_starts_fresh(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.touch()  # previous run died before its header hit disk
        with CheckpointStore.resume(str(path), {"seed": 1}) as store:
            assert store.completed == {}

    def test_resume_reloads_and_appends(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1}) as store:
            store.record(_partial(0))
        with CheckpointStore.resume(path, {"seed": 1}) as store:
            assert sorted(store.completed) == [0]
            store.record(_partial(1))
        _, completed, _ = scan_checkpoint(path)
        assert sorted(completed) == [0, 1]

    def test_resume_rejects_fingerprint_mismatch(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1, "sessions": 8}):
            pass
        with pytest.raises(EvaluationError, match="seed"):
            CheckpointStore.resume(path, {"seed": 2, "sessions": 8})

    def test_resume_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text('{"some": "other json file"}\n')
        with pytest.raises(EvaluationError, match="not a fleet checkpoint"):
            CheckpointStore.resume(str(path), {"seed": 1})

    def test_resume_rejects_format_version_skew(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "version": 999,
                        "fingerprint": {"seed": 1}}) + "\n"
        )
        with pytest.raises(EvaluationError, match="version"):
            CheckpointStore.resume(str(path), {"seed": 1})

    def test_torn_trailing_record_dropped_and_truncated(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1}) as store:
            store.record(_partial(0))
            store.record(_partial(1))
        intact_size = os.path.getsize(path)
        with open(path, "a") as handle:
            handle.write('{"kind": "shard", "shard": 2, "ses')  # died mid-write
        with CheckpointStore.resume(path, {"seed": 1}) as store:
            assert sorted(store.completed) == [0, 1]
        assert os.path.getsize(path) == intact_size  # damage truncated away

    def test_garbled_complete_line_also_ends_scan(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1}) as store:
            store.record(_partial(0))
        with open(path, "ab") as handle:
            handle.write(b"\x00\xff garbage \n")
        _, completed, intact = scan_checkpoint(path)
        assert sorted(completed) == [0]
        assert intact < os.path.getsize(path)

    def test_record_after_close_refused(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        store = CheckpointStore.fresh(path, {"seed": 1})
        store.close()
        with pytest.raises(EvaluationError, match="closed"):
            store.record(_partial(0))


# ----------------------------------------------------------------------
# Damaged tails: any truncation or appended garbage ends the scan
# ----------------------------------------------------------------------
def _journal() -> bytes:
    """A journal as the writer leaves it: header plus three shards."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cp.jsonl")
        with CheckpointStore.fresh(path, {"seed": 1}) as store:
            for shard in (0, 2, 1):
                store.record(_partial(shard))
        with open(path, "rb") as handle:
            return handle.read()


JOURNAL = _journal()


def _scan_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cp.jsonl")
        with open(path, "wb") as handle:
            handle.write(data)
        return scan_checkpoint(path)


def _assert_intact_prefix(data: bytes, header, completed, intact):
    assert 0 <= intact <= len(data)
    assert intact == 0 or data[intact - 1 : intact] == b"\n"
    if intact:
        assert header is not None
    # Every shard record inside the intact prefix, read back from its
    # raw line, has JSON-integer counts >= 0 and an object aggregate.
    last = {}
    for line in data[:intact].splitlines()[1:]:
        record = json.loads(line)
        if record.get("kind") != "shard":
            continue
        for key in ("shard", "sessions"):
            assert type(record[key]) is int and record[key] >= 0
        assert isinstance(record["aggregate"], dict)
        last[record["shard"]] = record
    assert sorted(completed) == sorted(last)
    for shard, partial in completed.items():
        assert partial == {key: last[shard][key]
                           for key in ("shard", "sessions", "aggregate")}


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_shard_lines = st.fixed_dictionaries(
    {"kind": st.just("shard"), "shard": _json_values,
     "sessions": _json_values, "aggregate": _json_values}
).map(lambda record: (json.dumps(record) + "\n").encode())
_garbage = st.lists(
    st.one_of(
        st.binary(max_size=40),
        _shard_lines,
        st.sampled_from([b"[" * 200_000 + b"\n", b"{" * 5_000 + b"\n"]),
    ),
    max_size=4,
).map(b"".join)


class TestDamagedTails:
    @pytest.mark.parametrize(
        "line",
        [b'{"kind": "shard", "shard": 1e999, "sessions": 3, "aggregate": {}}\n',
         b'{"kind": "shard", "shard": 3, "sessions": Infinity, "aggregate": {}}\n',
         b'{"kind": "shard", "shard": 3, "sessions": NaN, "aggregate": {}}\n',
         b'{"kind": "shard", "shard": 3, "sessions": 3, "aggregate": [1]}\n',
         b'{"kind": "shard", "shard": 2.9, "sessions": 3, "aggregate": {}}\n',
         b'{"kind": "shard", "shard": 3, "sessions": true, "aggregate": {}}\n',
         b'{"kind": "shard", "shard": "3", "sessions": 3, "aggregate": {}}\n',
         b'{"kind": "shard", "shard": -4, "sessions": 3, "aggregate": {}}\n',
         b'{"kind": "shard", "shard": 3, "sessions": -1, "aggregate": {}}\n',
         b'{"kind": "shard", "sessions": 3, "aggregate": {}}\n',
         b"[" * 200_000 + b"\n"],
        ids=["shard-overflow", "sessions-infinity", "sessions-nan",
             "aggregate-not-object", "shard-fractional", "sessions-bool",
             "shard-string", "shard-negative", "sessions-negative",
             "shard-missing", "deep-nesting"],
    )
    def test_damaged_record_ends_scan(self, line):
        header, completed, intact = _scan_bytes(JOURNAL + line + JOURNAL)
        assert header is not None
        assert sorted(completed) == [0, 1, 2]
        assert intact == len(JOURNAL)

    @given(st.integers(min_value=0, max_value=len(JOURNAL)))
    def test_truncation_keeps_whole_records(self, cut):
        header, completed, intact = _scan_bytes(JOURNAL[:cut])
        lines = JOURNAL[:cut].splitlines(keepends=True)
        whole = [line for line in lines if line.endswith(b"\n")]
        assert intact == sum(len(line) for line in whole)
        expected = [json.loads(line)["shard"] for line in whole[1:]]
        assert sorted(completed) == sorted(expected)
        assert (header is None) == (not whole)
        _assert_intact_prefix(JOURNAL[:cut], header, completed, intact)

    @given(_garbage)
    def test_appended_garbage_keeps_the_journal(self, garbage):
        data = JOURNAL + garbage
        header, completed, intact = _scan_bytes(data)
        assert intact >= len(JOURNAL)
        assert {0, 1, 2} <= set(completed)
        _assert_intact_prefix(data, header, completed, intact)

    @given(st.one_of(st.binary(max_size=200), _garbage))
    def test_arbitrary_bytes_raise_only_evaluation_error(self, data):
        try:
            header, completed, intact = _scan_bytes(data)
        except EvaluationError:
            return  # a complete first line that is not a header
        _assert_intact_prefix(data, header, completed, intact)


# ----------------------------------------------------------------------
# Resume through the driver: byte-identity and skip planning
# ----------------------------------------------------------------------
class TestResumeByteIdentity:
    def _interrupted_checkpoint(self, tmp_path, jobs=1):
        """A checkpoint from a run that lost shard 1 (permanent crash
        with no retry budget): shards 0 and 2 are durably recorded."""
        path = str(tmp_path / "cp.jsonl")
        crashing = FleetSpec(
            **SPEC, max_retries=0, inject_crash={"shard": 1, "attempts": 99}
        )
        result = Fleet(crashing, jobs=jobs, checkpoint=path).run()
        assert not result.ok
        assert sorted(scan_checkpoint(path)[1]) == [0, 2]
        return path

    def test_resumed_run_byte_identical_inline(self, tmp_path):
        path = self._interrupted_checkpoint(tmp_path)
        resumed = Fleet(
            FleetSpec(**SPEC), jobs=1, checkpoint=path, resume=True
        ).run()
        assert resumed.ok
        assert resumed.resumed_shards == 2
        assert resumed.to_json() == clean_json()

    def test_resumed_run_byte_identical_pooled(self, tmp_path):
        path = self._interrupted_checkpoint(tmp_path, jobs=2)
        resumed = Fleet(
            FleetSpec(**SPEC), jobs=4, checkpoint=path, resume=True
        ).run()
        assert resumed.ok
        assert resumed.to_json() == clean_json()

    def test_resume_jobs_do_not_change_bytes(self, tmp_path):
        source = self._interrupted_checkpoint(tmp_path)
        outputs = []
        for jobs in (1, 3):
            copy = str(tmp_path / f"cp-{jobs}.jsonl")
            shutil.copy(source, copy)
            outputs.append(
                Fleet(FleetSpec(**SPEC), jobs=jobs, checkpoint=copy,
                      resume=True).run().to_json()
            )
        assert outputs[0] == outputs[1] == clean_json()

    def test_resume_skips_completed_shards(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cp.jsonl")
        Fleet(FleetSpec(**SPEC), jobs=1, checkpoint=path).run()
        reference = clean_json()  # before run_shard_job is disarmed below

        def explode(_payload):
            raise AssertionError("a completed shard was re-executed")

        monkeypatch.setattr("repro.fleet.driver.run_shard_job", explode)
        resumed = Fleet(
            FleetSpec(**SPEC), jobs=1, checkpoint=path, resume=True
        ).run()
        assert resumed.ok
        assert resumed.resumed_shards == resumed.shards_total
        assert resumed.to_json() == reference

    def test_corrupt_tail_reruns_that_shard_only(self, tmp_path):
        path = str(tmp_path / "cp.jsonl")
        Fleet(FleetSpec(**SPEC), jobs=1, checkpoint=path).run()
        # Tear the final record the way a mid-write crash would.
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:-20])
        resumed = Fleet(
            FleetSpec(**SPEC), jobs=1, checkpoint=path, resume=True
        ).run()
        assert resumed.resumed_shards == resumed.shards_total - 1
        assert resumed.to_json() == clean_json()

    @pytest.mark.parametrize(
        "override",
        [dict(seed=8), dict(shard_size=4),
         dict(mix=parse_mix("todo:greenweb"))],
    )
    def test_fingerprint_mismatch_refused_without_running(
        self, tmp_path, monkeypatch, override
    ):
        path = self._interrupted_checkpoint(tmp_path)

        def explode(_payload):
            raise AssertionError("a shard ran despite the mismatch")

        monkeypatch.setattr("repro.fleet.driver.run_shard_job", explode)
        with pytest.raises(EvaluationError, match="different fleet spec"):
            Fleet(
                FleetSpec(**{**SPEC, **override}), jobs=1,
                checkpoint=path, resume=True,
            ).run()

    def test_resume_requires_checkpoint(self):
        with pytest.raises(EvaluationError, match="checkpoint"):
            Fleet(FleetSpec(**SPEC), jobs=1, resume=True)

    def test_checkpoint_without_resume_starts_over(self, tmp_path):
        path = self._interrupted_checkpoint(tmp_path)
        fresh = Fleet(FleetSpec(**SPEC), jobs=1, checkpoint=path).run()
        assert fresh.resumed_shards == 0
        assert fresh.to_json() == clean_json()


# ----------------------------------------------------------------------
# Through the CLI
# ----------------------------------------------------------------------
class TestCheckpointCli:
    ARGS = ["fleet", "--sessions", "8", "--seed", "7", "--shard-size", "3",
            "--mix", "todo:greenweb,cnet:perf"]

    def test_failed_then_resumed_matches_single_shot(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        checkpoint = str(tmp_path / "cp.jsonl")
        resumed_json = tmp_path / "resumed.json"
        clean_out = tmp_path / "clean.json"

        monkeypatch.setenv(
            "REPRO_FLEET_INJECT_CRASH", '{"shard": 1, "attempts": 99}'
        )
        assert main(
            self.ARGS + ["--max-retries", "0", "--checkpoint", checkpoint]
        ) == 1  # shard 1 failed; the rest are checkpointed
        monkeypatch.delenv("REPRO_FLEET_INJECT_CRASH")

        assert main(
            self.ARGS + ["--checkpoint", checkpoint, "--resume",
                         "--json-out", str(resumed_json)]
        ) == 0
        assert "resumed:     2 shard(s)" in capsys.readouterr().out

        assert main(self.ARGS + ["--json-out", str(clean_out)]) == 0
        assert resumed_json.read_bytes() == clean_out.read_bytes()

    def test_resume_without_checkpoint_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_mismatch_exits_2_and_creates_no_output(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        checkpoint = str(tmp_path / "cp.jsonl")
        assert main(self.ARGS + ["--checkpoint", checkpoint]) == 0
        out_path = tmp_path / "out.json"
        assert main(
            ["fleet", "--sessions", "8", "--seed", "8", "--shard-size", "3",
             "--mix", "todo:greenweb,cnet:perf", "--checkpoint", checkpoint,
             "--resume", "--json-out", str(out_path)]
        ) == 2
        assert "different fleet spec" in capsys.readouterr().err
        # The writability probe must not have materialised an empty
        # file that looks like a truncated result.
        assert not out_path.exists()
