"""Tests for the checkpoint/restore subsystem: the ``ckpt/12`` codec
(format, schema versioning, provenance checks), simulator snapshots,
resumable single-router experiments, and in-flight link state."""

import io
import os
import pickle
from collections import deque

import pytest

from repro import frame
from repro.ckpt.codec import (
    CKPT_SCHEMA,
    MAGIC,
    CheckpointCodec,
    CheckpointError,
    CheckpointFormatError,
    CheckpointMismatchError,
    CheckpointSchemaError,
)
from repro.core.bandwidth import BandwidthRequest
from repro.core.config import RouterConfig
from repro.core.flit import Flit, FlitType
from repro.core.priority import BiasedPriority
from repro.core.router import Router
from repro.core.switch_scheduler import GreedyPriorityScheduler
from repro.harness.churn import ChurnSpec, ChurnWorkload
from repro.harness.network_experiment import NetworkExperiment, NetworkExperimentSpec
from repro.harness.single_router import (
    ExperimentSpec,
    SingleRouterExperiment,
    run_single_router_experiment,
)
from repro.network.connection import ConnectionManager
from repro.network.interface import NetworkInterface
from repro.network.network import Network
from repro.network.topology import mesh, torus
from repro.obs.manifest import config_digest
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRng
from tests.scenarios import build_cbr_scenario, build_saturated_scenario

TINY = RouterConfig(num_ports=4, vcs_per_port=32, enforce_round_budgets=False)


def tiny_spec(**overrides):
    base = dict(
        target_load=0.4,
        config=TINY,
        candidates=4,
        seed=3,
        warmup_cycles=300,
        measure_cycles=1500,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def result_fingerprint(result):
    """The scalar outcome of an experiment, for identity comparison."""
    return (
        result.connections,
        result.summary,
        result.per_connection,
        result.utilisation,
        result.max_interface_backlog,
    )


class TestCodecRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        components = {"numbers": [1, 2, 3], "label": "midpoint"}
        written = CheckpointCodec.save(
            path, components, kind="test", cycle=42, seed=9, config=TINY
        )
        header, loaded = CheckpointCodec.load(path, expect_kind="test")
        assert loaded == components
        assert header == written
        assert header.schema == CKPT_SCHEMA
        assert header.cycle == 42
        assert header.seed == 9
        assert header.config_digest == config_digest(TINY)
        assert set(header.sections) == {"numbers", "label"}
        assert all(size > 0 for size in header.sections.values())
        assert sum(header.sections.values()) == header.payload_bytes

    def test_sections_are_marginal_bytes_in_dump_order(self, tmp_path):
        """An object two components share is written once, with the first
        of them; the second costs a back-reference."""
        shared = list(range(500))
        header = CheckpointCodec.save(
            tmp_path / "state.ckpt",
            {"first": {"log": shared}, "second": {"log": shared}},
            kind="test",
            cycle=0,
        )
        assert header.sections["first"] > 500
        assert header.sections["second"] < 50
        assert sum(header.sections.values()) == header.payload_bytes

    def test_components_sharing_an_object_unpickle_to_one_object(self, tmp_path):
        path = tmp_path / "state.ckpt"
        shared = ["flit"]
        CheckpointCodec.save(
            path,
            {"queue": {"pending": shared}, "vc": {"buffer": shared}, "n": 3},
            kind="test",
            cycle=0,
        )
        _, loaded = CheckpointCodec.load(path)
        assert list(loaded) == ["queue", "vc", "n"]
        assert loaded["queue"]["pending"] is loaded["vc"]["buffer"]
        assert loaded["queue"]["pending"] == ["flit"]

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "state.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="test", cycle=0)
        CheckpointCodec.save(path, {"v": 2}, kind="test", cycle=1)
        _, loaded = CheckpointCodec.load(path)
        assert loaded == {"v": 2}
        assert list(tmp_path.iterdir()) == [path]  # no .tmp left behind

    @pytest.mark.parametrize("failing", ["write", "rename"])
    def test_failed_save_leaves_no_tmp_and_the_old_checkpoint(
        self, tmp_path, monkeypatch, failing
    ):
        path = tmp_path / "state.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="test", cycle=0)

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        # "write": the header line fails after the staging file was
        # opened and the magic written, as a full disk would.
        if failing == "rename":
            monkeypatch.setattr(os, "replace", disk_full)
        else:
            monkeypatch.setattr(frame, "open", _FillsAfterMagic, raising=False)
        with pytest.raises(OSError, match="No space left"):
            CheckpointCodec.save(path, {"v": 2}, kind="test", cycle=1)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == [path]
        _, loaded = CheckpointCodec.load(path)
        assert loaded == {"v": 1}

    def test_two_saves_of_one_path_use_different_tmp_names(
        self, tmp_path, monkeypatch
    ):
        staged = []
        real_replace = os.replace

        def spy(src, dst):
            staged.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        path = tmp_path / "state.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="test", cycle=0)
        CheckpointCodec.save(path, {"v": 2}, kind="test", cycle=1)
        assert len(set(staged)) == 2
        assert all(os.path.dirname(name) == str(tmp_path) for name in staged)

    def test_header_carries_provenance(self, tmp_path):
        path = tmp_path / "state.ckpt"
        CheckpointCodec.save(
            path, {"v": 1}, kind="test", cycle=5, extra={"note": "hi"}
        )
        header = CheckpointCodec.read_header(path)
        assert header.manifest["command"] == "ckpt.save[test]"
        assert header.manifest["note"] == "hi"  # extra fields are flattened

    def test_accepts_digest_string_for_expect_config(self, tmp_path):
        path = tmp_path / "state.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="test", cycle=0, config=TINY)
        CheckpointCodec.load(path, expect_config=config_digest(TINY))

    def test_rejects_unpicklable_component(self, tmp_path):
        with pytest.raises(CheckpointError) as excinfo:
            CheckpointCodec.save(
                tmp_path / "bad.ckpt",
                {"handler": lambda: None},
                kind="test",
                cycle=0,
            )
        assert "not picklable" in str(excinfo.value)
        assert not (tmp_path / "bad.ckpt").exists()


class _FillsAfterMagic(io.FileIO):
    """A staging file on a disk that fills up after its first write."""

    def write(self, data):
        if self.tell():
            raise OSError(28, "No space left on device")
        return super().write(data)


class TestHeaderOnlyReads:
    """read_header/inspect must never unpickle the payload."""

    def _write_raw(self, path, header_line: bytes, payload: bytes):
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(header_line)
            handle.write(b"\n")
            handle.write(payload)

    def test_inspect_never_unpickles(self, tmp_path):
        # The payload is NOT valid pickle; header-only reads must still
        # succeed because they never touch it.
        import hashlib
        import json

        payload = b"\x00definitely-not-a-pickle"
        header = {
            "schema": CKPT_SCHEMA,
            "kind": "test",
            "cycle": 7,
            "seed": None,
            "config_digest": None,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "sections": {},
            "manifest": {},
        }
        path = tmp_path / "opaque.ckpt"
        self._write_raw(path, json.dumps(header).encode(), payload)
        assert CheckpointCodec.read_header(path).cycle == 7
        summary = CheckpointCodec.inspect(path)
        assert summary["kind"] == "test"
        assert summary["payload_bytes"] == len(payload)
        # Only a full load attempts the unpickle, and it fails loudly.
        with pytest.raises(CheckpointFormatError, match="failed to unpickle"):
            CheckpointCodec.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "notckpt"
        path.write_bytes(b"garbage bytes, not a checkpoint")
        with pytest.raises(CheckpointFormatError, match="bad magic"):
            CheckpointCodec.read_header(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_bytes(MAGIC + b'{"schema": "ckpt/1"')  # no newline
        with pytest.raises(CheckpointFormatError, match="truncated"):
            CheckpointCodec.read_header(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "badjson.ckpt"
        self._write_raw(path, b"not json at all", b"")
        with pytest.raises(CheckpointFormatError, match="not valid JSON"):
            CheckpointCodec.read_header(path)


class TestSchemaAndProvenanceChecks:
    def _rewrite_header(self, path, mutate):
        """Edit one field of an existing checkpoint's header in place."""
        import json

        raw = path.read_bytes()
        body = raw[len(MAGIC):]
        header_line, payload = body.split(b"\n", 1)
        record = json.loads(header_line)
        mutate(record)
        path.write_bytes(MAGIC + json.dumps(record).encode() + b"\n" + payload)

    def test_unknown_schema_names_both_versions(self, tmp_path):
        path = tmp_path / "future.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="test", cycle=0)
        self._rewrite_header(path, lambda r: r.update(schema="ckpt/999"))
        with pytest.raises(CheckpointSchemaError) as excinfo:
            CheckpointCodec.read_header(path)
        assert excinfo.value.found == "ckpt/999"
        assert excinfo.value.expected == CKPT_SCHEMA
        assert "ckpt/999" in str(excinfo.value)
        assert CKPT_SCHEMA in str(excinfo.value)

    def test_previous_schema_is_refused_by_name(self, tmp_path):
        """A ``ckpt/11`` graph's built input ports carry a VC object in
        every slot, and its link schedulers a bound ``credit_check`` this
        build no longer has.  A ``ckpt/10`` graph's input ports carry
        every VC built and no
        ``vc_capacity`` to build them from, and each of its link
        schedulers a random stream whatever its selection mode.
        A ``ckpt/9`` graph sets the ``prio_flit`` and ``prio_conn``
        slots of its virtual channels, which no longer exist: unpickled,
        it would fail with ``AttributeError``.  A ``ckpt/8`` graph pickles each router's ``NullTracer``, whose
        module is deleted: unpickled, it would fail on the import.
        A ``ckpt/7`` graph keeps its events in a binary heap of tuples
        and its statistics objects have no pending lists.  A ``ckpt/6``
        graph carries the shared empty offer lists of its routers and the
        selection-mode flags of its link schedulers.  A ``ckpt/5`` graph
        carries the fields that selected the deleted
        engines on its simulator, tickers, routers, link schedulers and
        specs.  A ``ckpt/4`` graph predates the per-hop budget: its activity
        sets, link handlers and host outputs lack the slots the per-flit
        path now reads.  A ``ckpt/3`` payload is one pickled dict, not a
        stream of records.  A ``ckpt/2`` file has no awake list, no pending wakes and no
        wake hooks (the arena held them, or nobody): resumed here its
        routers would sleep for ever.  A ``ckpt/1`` file also keeps
        in-flight flits as heap events.  Refuse all eleven up front."""
        path = tmp_path / "parent-commit.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="network", cycle=0)
        for previous in (
            "ckpt/11", "ckpt/10", "ckpt/9", "ckpt/8", "ckpt/7", "ckpt/6",
            "ckpt/5", "ckpt/4", "ckpt/3", "ckpt/2", "ckpt/1",
        ):
            self._rewrite_header(path, lambda r: r.update(schema=previous))
            for read in (CheckpointCodec.read_header, CheckpointCodec.load):
                with pytest.raises(CheckpointSchemaError) as excinfo:
                    read(path)
                error = excinfo.value
                assert (error.found, error.expected) == (previous, CKPT_SCHEMA)
                assert previous in str(error) and CKPT_SCHEMA in str(error)

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "state.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="network", cycle=0)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            CheckpointCodec.load(path, expect_kind="single_router")
        assert excinfo.value.found == "network"
        assert excinfo.value.expected == "single_router"

    def test_config_digest_mismatch_names_both_digests(self, tmp_path):
        path = tmp_path / "state.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="test", cycle=0, config=TINY)
        other = TINY.with_(vcs_per_port=64)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            CheckpointCodec.load(path, expect_config=other)
        message = str(excinfo.value)
        assert config_digest(TINY) in message
        assert config_digest(other) in message

    def test_corrupt_payload_checksum(self, tmp_path):
        path = tmp_path / "state.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="test", cycle=0)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload byte, length unchanged
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="checksum"):
            CheckpointCodec.load(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "state.ckpt"
        CheckpointCodec.save(path, {"v": 1}, kind="test", cycle=0)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(CheckpointFormatError, match="truncated or corrupt"):
            CheckpointCodec.load(path)


class TestSimulatorSnapshot:
    def test_snapshot_restore_is_bit_identical(self):
        delivered_a, delivered_b = [], []
        sim_a, _ = build_cbr_scenario(connections=8, delivered=delivered_a)
        sim_b, _ = build_cbr_scenario(connections=8, delivered=delivered_b)
        sim_a.run(600)

        sim_b.run(300)
        blob = sim_b.snapshot()
        midpoint = len(delivered_b)
        restored = Simulator.restore(blob)
        restored.run(300)

        # The restored kernel finds the same delivery log through its own
        # pickled component graph and extends it identically.
        restored_log = delivered_b[:midpoint] + self._restored_records(
            restored, midpoint
        )
        assert restored_log == delivered_a

    @staticmethod
    def _restored_records(restored_sim, midpoint):
        # The DeliveryLog is reachable from the restored graph: the router
        # is a registered ticker, and its output handlers share one log.
        for ticker in restored_sim._tickers:  # noqa: SLF001 - test introspection
            owner = getattr(ticker.tick, "__self__", None)
            handlers = getattr(owner, "output_handlers", None) or []
            logs = [h for h in handlers if h is not None]
            if logs:
                return logs[0].records[midpoint:]
        raise AssertionError("restored graph has no router output handlers")

    def test_restored_simulator_is_detached(self):
        delivered = []
        sim, _ = build_cbr_scenario(connections=4, delivered=delivered)
        sim.run(200)
        blob = sim.snapshot()
        count = len(delivered)
        restored = Simulator.restore(blob)
        restored.run(200)
        # Running the copy never mutates the original's delivery log.
        assert len(delivered) == count

    def test_snapshot_mid_tick_is_refused(self):
        sim = Simulator()
        failures = []

        class Snapshotter:
            def __init__(self, sim):
                self.sim = sim

            def tick(self, cycle):
                try:
                    self.sim.snapshot()
                except RuntimeError as exc:
                    failures.append(str(exc))

        sim.add_ticker(Snapshotter(sim).tick)
        sim.run(1)
        assert failures and "ticker context" in failures[0]

    def test_restore_rejects_non_simulator(self):
        blob = pickle.dumps({"not": "a simulator"})
        with pytest.raises(TypeError):
            Simulator.restore(blob)


class TestSingleRouterCheckpoint:
    def test_midpoint_resume_is_bit_identical(self, tmp_path):
        spec = tiny_spec()
        straight = SingleRouterExperiment(spec).result()

        experiment = SingleRouterExperiment(spec)
        experiment.run_to(900)
        path = tmp_path / "mid.ckpt"
        header = experiment.checkpoint(path)
        assert header.cycle == 900
        del experiment
        resumed = SingleRouterExperiment.resume(path, expect_spec=spec)
        assert resumed.now == 900
        assert result_fingerprint(resumed.result()) == result_fingerprint(straight)

    def test_run_to_rejects_backwards(self):
        experiment = SingleRouterExperiment(tiny_spec())
        experiment.run_to(500)
        with pytest.raises(ValueError, match="backwards"):
            experiment.run_to(100)

    def test_warmup_reset_happens_once_across_resume(self, tmp_path):
        # Checkpoint exactly at the warm-up boundary: the resumed run must
        # not reset statistics a second time.
        spec = tiny_spec()
        experiment = SingleRouterExperiment(spec)
        experiment.run_to(spec.warmup_cycles)
        assert experiment._measurement_started  # noqa: SLF001
        path = tmp_path / "boundary.ckpt"
        experiment.checkpoint(path)
        resumed = SingleRouterExperiment.resume(path)
        assert resumed._measurement_started  # noqa: SLF001
        straight = SingleRouterExperiment(spec).result()
        assert result_fingerprint(resumed.result()) == result_fingerprint(straight)

    def test_wrapper_periodic_checkpoints_record_lineage(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "run.ckpt"
        result = run_single_router_experiment(
            spec, checkpoint_every=600, checkpoint_path=path
        )
        plain = run_single_router_experiment(spec)
        assert result_fingerprint(result) == result_fingerprint(plain)
        lineage = result.checkpoint
        assert lineage["schema"] == CKPT_SCHEMA
        assert lineage["resumed_from_cycle"] is None
        assert lineage["checkpoints_written"] >= 2
        assert path.exists()

    def test_wrapper_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_single_router_experiment(tiny_spec(), checkpoint_every=500)

    def test_wrapper_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="positive"):
            run_single_router_experiment(
                tiny_spec(), checkpoint_every=0, checkpoint_path="x.ckpt"
            )


def _network_spec(**overrides):
    base = dict(
        target_link_load=0.2, num_nodes=4, warmup_cycles=100, measure_cycles=400
    )
    return NetworkExperimentSpec(**{**base, **overrides})


def _churn_spec(**overrides):
    base = dict(
        num_sessions=20, mean_interarrival_cycles=100.0, mean_holding_cycles=500.0,
        drain_cycles=2000, num_nodes=4,
    )
    return ChurnSpec(**{**base, **overrides})


class TestResumeProvenance:
    """Every experiment kind refuses another point's checkpoint from its
    header alone: nothing is unpickled."""

    KINDS = {
        "single_router": (SingleRouterExperiment, tiny_spec),
        "network": (NetworkExperiment, _network_spec),
        "churn": (ChurnWorkload, _churn_spec),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_resume_refuses_wrong_spec(self, tmp_path, monkeypatch, kind):
        cls, make_spec = self.KINDS[kind]
        spec = make_spec()
        experiment = cls(spec)
        experiment.run_to(400)
        path = tmp_path / "mid.ckpt"
        experiment.checkpoint(path)

        def unpickler(*args, **kwargs):
            pytest.fail("resume unpickled a checkpoint of another spec")

        monkeypatch.setattr(pickle, "Unpickler", unpickler)
        # Same config digest, different spec (seed): caught on the spec
        # digest in the header.
        with pytest.raises(CheckpointMismatchError, match="spec"):
            cls.resume(path, expect_spec=make_spec(seed=4))
        if kind == "single_router":
            # Different config: caught on the config digest first.
            other = tiny_spec(config=TINY.with_(vcs_per_port=64))
            with pytest.raises(CheckpointMismatchError, match="config digest"):
                cls.resume(path, expect_spec=other)
        monkeypatch.undo()
        assert cls.resume(path, expect_spec=spec).now == 400


class TestMidpointResumeFromDisk:
    """Checkpoint at the midpoint, drop every live object, finish from the
    file alone: the run equals one that never stopped."""

    def test_saturated_router(self, tmp_path):
        cycles = 2000
        straight = []
        sim, router = build_saturated_scenario(delivered=straight)
        assert len(router.connection_stats) == 729
        sim.run(cycles)
        reference = dict(router.stats.scalars)

        delivered = []
        sim, router = build_saturated_scenario(delivered=delivered)
        sim.run(cycles // 2)
        path = tmp_path / "router.ckpt"
        state = {"sim": sim, "router": router, "delivered": delivered}
        CheckpointCodec.save(path, state, kind="test", cycle=sim.now)
        del sim, router, delivered, state
        _, state = CheckpointCodec.load(path, expect_kind="test")
        state["sim"].run(cycles - cycles // 2)
        state["router"].check_invariants()
        assert state["delivered"] == straight
        assert dict(state["router"].stats.scalars) == reference

    def test_multihop_network_with_best_effort_in_flight(self, tmp_path):
        spec = NetworkExperimentSpec(
            target_link_load=0.3,
            num_nodes=12,
            best_effort_rate=0.5,
            warmup_cycles=500,
            measure_cycles=2000,
            seed=11,
        )

        def fingerprint(result):
            return (
                result.streams,
                result.attempts,
                result.mean_hops,
                result.delay_cycles.count,
                result.delay_cycles.mean,
                result.jitter_cycles.mean,
                result.by_hops,
                result.best_effort_delivered,
            )

        straight = NetworkExperiment(spec).result()
        assert straight.delay_cycles.count and straight.best_effort_delivered
        experiment = NetworkExperiment(spec)
        experiment.run_to((experiment.total_cycles + experiment.now) // 2)
        path = tmp_path / "network.ckpt"
        experiment.checkpoint(path)
        del experiment
        resumed = NetworkExperiment.resume(path, expect_spec=spec)
        assert resumed.now > spec.warmup_cycles
        assert fingerprint(resumed.result()) == fingerprint(straight)


class TestCheckpointSizeFollowsVcsInUse:
    """Four times the VCs per port, the same connections: the extra idle
    VCs cost their constructor arguments, no more."""

    @staticmethod
    def config(vcs_per_port):
        return RouterConfig(
            num_ports=8, vcs_per_port=vcs_per_port, enforce_round_budgets=False
        )

    def bare_router_bytes(self, tmp_path, vcs_per_port):
        sim = Simulator()
        router = Router(
            self.config(vcs_per_port), BiasedPriority(), GreedyPriorityScheduler(), sim
        )
        for connection_id in range(10):
            port = connection_id % 8
            vc_index = router.open_connection(
                connection_id, port, (port + 1) % 8, BandwidthRequest(2)
            )
            router.inject(
                port, vc_index, Flit(FlitType.DATA, connection_id=connection_id)
            )
        sim.run(3)
        header = CheckpointCodec.save(
            tmp_path / f"router{vcs_per_port}.ckpt",
            {"sim": sim, "router": router},
            kind="test",
            cycle=sim.now,
        )
        return header.payload_bytes

    def test_an_idle_vc_costs_a_few_bytes(self, tmp_path):
        small = self.bare_router_bytes(tmp_path, 64)
        large = self.bare_router_bytes(tmp_path, 256)
        extra_vcs = 8 * (256 - 64)
        # Constructor arguments plus the VC's credit counter upstream; an
        # eagerly pickled VC is ~160 bytes.
        assert (large - small) / extra_vcs < 20, (small, large)

    def test_experiment_checkpoint_barely_grows_with_provisioned_vcs(self, tmp_path):
        """What ``repro run --checkpoint-out`` writes for a dozen
        connections: each VC provisioned beyond 64 per port costs what an
        idle VC costs in the bare router above.  (A ratio of the two sizes
        would measure the 64-VC side too, which shrinks whenever anything
        else in the experiment does.)"""
        sizes = {}
        for vcs_per_port in (64, 256):
            spec = tiny_spec(config=self.config(vcs_per_port), target_load=0.005)
            experiment = SingleRouterExperiment(spec)
            experiment.run_to(900)
            assert 10 <= len(experiment.router.connection_stats) <= 16
            header = experiment.checkpoint(tmp_path / f"run{vcs_per_port}.ckpt")
            sizes[vcs_per_port] = header.payload_bytes
        extra_vcs = 8 * (256 - 64)
        assert (sizes[256] - sizes[64]) / extra_vcs < 20, sizes


def _build_network(topology, config, label, flows, **network_options):
    """A network with one interface per node and the CBR ``flows``
    ``(source, destination, rate)`` open, as a checkpointable dict."""
    sim = Simulator()
    rng = SeededRng(5, label)
    network = Network(
        topology, config, BiasedPriority(), sim, rng, **network_options
    )
    manager = ConnectionManager(network)
    interfaces = [
        NetworkInterface(network, manager, n, rng=rng.spawn(f"ni{n}"))
        for n in range(topology.num_nodes)
    ]
    for src, dst, rate in flows:
        assert interfaces[src].open_cbr(dst, rate) is not None
    return {"sim": sim, "network": network, "interfaces": interfaces}


class TestLinkLanesCheckpoint:
    """In-flight flits and credits are pickled with the network."""

    CYCLES = 600

    @staticmethod
    def build():
        topology = mesh(3, 3)
        config = RouterConfig(
            num_ports=topology.num_ports,
            vcs_per_port=8,
            vc_buffer_flits=4,
            enforce_round_budgets=False,
        )
        state = _build_network(
            topology,
            config,
            "ckpt-lanes",
            [(0, 8, 120e6), (2, 6, 55e6), (7, 1, 55e6), (5, 3, 20e6)],
            link_latency=2,
        )
        for _ in range(6):
            state["interfaces"][4].send_best_effort(0)
        # A connection nobody sends on (bound VCs that never see a flit)
        # and one torn down again (released VCs).
        manager = state["interfaces"][0].manager
        assert manager.establish(3, 5, BandwidthRequest(2)) is not None
        manager.teardown(manager.establish(6, 2, BandwidthRequest(2)))
        return state

    @staticmethod
    def burst(state):
        """Six packets into one host port at once: one crosses the switch
        per cycle, so for a few cycles the rest sit in their VCs."""
        for _ in range(6):
            state["interfaces"][4].send_best_effort(0)

    @staticmethod
    def vc_kinds(network):
        """How many VCs are in each state a checkpoint stores differently."""
        kinds = {
            "unbuilt": 0, "untouched": 0, "bound_silent": 0, "buffering": 0,
            "drained": 0,
        }
        for router in network.routers:
            for port in router.input_ports:
                for vc in port.vcs:
                    if vc is None:
                        kinds["unbuilt"] += 1
                    elif vc.buffer:
                        kinds["buffering"] += 1
                    elif isinstance(vc.buffer, deque):
                        kinds["drained"] += 1
                    elif vc.connection_id is not None:
                        kinds["bound_silent"] += 1
                    else:
                        kinds["untouched"] += 1
        return kinds

    @staticmethod
    def fingerprint(state):
        network = state["network"]
        network.check_invariants()
        return (
            [
                (cid, s.flits, s.delay.mean, s.jitter.mean)
                for ni in state["interfaces"]
                for cid, s in sorted(ni.end_to_end.items())
            ],
            [dict(router.stats.scalars) for router in network.routers],
            dict(network.stats.scalars),
        )

    def test_resume_with_flits_on_the_links(self, tmp_path):
        straight = self.build()
        straight["sim"].run(self.CYCLES // 2)
        self.burst(straight)
        straight["sim"].run(self.CYCLES - self.CYCLES // 2)
        reference = self.fingerprint(straight)
        assert reference[0]

        state = self.build()
        state["sim"].run(self.CYCLES // 2)
        self.burst(state)
        while not (
            state["network"].flits_in_flight()
            and state["network"].credits_in_flight()
            and state["network"].total_buffered()
        ):
            assert state["sim"].now < self.CYCLES, "no such cycle"
            state["sim"].run(1)
        # Every kind of VC is in the snapshot: never bound (a None slot),
        # released (stored as constructor arguments), bound but silent
        # (placeholder buffer), holding flits, and bound with a drained
        # deque.
        kinds = self.vc_kinds(state["network"])
        assert all(kinds.values()), kinds
        released = sum(
            router.stats.get_counter("packet_vcs_released")
            + router.stats.get_counter("connections_closed")
            for router in state["network"].routers
        )
        assert released >= 6
        path = tmp_path / "lanes.ckpt"
        CheckpointCodec.save(path, state, kind="test", cycle=state["sim"].now)
        del state
        _, resumed = CheckpointCodec.load(path, expect_kind="test")
        assert resumed["network"].flits_in_flight() > 0
        assert resumed["network"].credits_in_flight() > 0
        assert self.vc_kinds(resumed["network"]) == kinds
        resumed["sim"].run(self.CYCLES - resumed["sim"].now)
        assert self.fingerprint(resumed) == reference


class TestSleepingRoutersCheckpoint:
    """Which routers sleep, since when, and the queued wakes are simulator
    state: a checkpoint taken with most of the torus asleep resumes to the
    result of the straight run, through later round boundaries."""

    CYCLES = 700
    CHECKPOINT_AT = 300  # mid-round: boundaries fall at 255, 511, ...

    @staticmethod
    def build():
        topology = torus(4, 4)
        config = RouterConfig(
            num_ports=topology.num_ports,
            vcs_per_port=8,
            round_factor=32,
            enforce_round_budgets=False,
        )
        assert config.round_length == 256
        return _build_network(
            topology,
            config,
            "ckpt-asleep",
            [(0, 1, 20e6), (10, 11, 5e6)],
            routing="dimension_order",
        )

    def test_resume_with_most_routers_asleep(self, tmp_path):
        fingerprint = TestLinkLanesCheckpoint.fingerprint
        straight = self.build()
        straight["sim"].run(self.CYCLES)
        reference = fingerprint(straight)
        assert reference[0]

        state = self.build()
        state["sim"].run(self.CHECKPOINT_AT)
        asleep = [t for t in state["sim"]._tickers if t.asleep_since is not None]
        assert len(asleep) >= 12
        path = tmp_path / "asleep.ckpt"
        CheckpointCodec.save(path, state, kind="test", cycle=state["sim"].now)
        del state, asleep
        _, resumed = CheckpointCodec.load(path, expect_kind="test")
        sim = resumed["sim"]
        sleepers = [t for t in sim._tickers if t.asleep_since is not None]
        assert len(sleepers) >= 12
        assert all(t.asleep_since == self.CHECKPOINT_AT for t in sleepers)
        # The hooks came back wired to the restored simulator's own queue.
        for router in resumed["network"].routers:
            assert router.activity.on_wake.woken is sim._woken
        sim.run(self.CYCLES - sim.now)
        assert any(t.asleep_since is not None for t in sim._tickers)
        assert fingerprint(resumed) == reference

