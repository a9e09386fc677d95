"""Unit tests for VM lifecycle and the EC2-style provider."""

import pytest

from repro.cloud.billing import HOUR
from repro.cloud.provider import CloudProvider, ProviderConfig
from repro.cloud.vm import VM, VMState


def make_vm(vm_id=0, lease=0.0, boot=120.0) -> VM:
    return VM(vm_id=vm_id, lease_time=lease, ready_time=lease + boot)


class TestVMLifecycle:
    def test_initial_state_booting(self):
        vm = make_vm()
        assert vm.state is VMState.BOOTING
        assert vm.alive

    def test_ready_before_lease_rejected(self):
        with pytest.raises(ValueError):
            VM(vm_id=0, lease_time=100.0, ready_time=50.0)

    def test_boot_complete(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        assert vm.state is VMState.IDLE

    def test_boot_complete_too_early_rejected(self):
        vm = make_vm()
        with pytest.raises(RuntimeError):
            vm.boot_complete(60.0)

    def test_boot_complete_twice_rejected(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        with pytest.raises(RuntimeError):
            vm.boot_complete(130.0)

    def test_assign_release_cycle(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        vm.assign(job_id=7, until=500.0)
        assert vm.state is VMState.BUSY
        assert vm.job_id == 7
        assert vm.busy_until == 500.0
        vm.release_job()
        assert vm.state is VMState.IDLE
        assert vm.job_id is None

    def test_assign_while_booting_rejected(self):
        with pytest.raises(RuntimeError):
            make_vm().assign(1, 100.0)

    def test_assign_while_busy_rejected(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        vm.assign(1, 500.0)
        with pytest.raises(RuntimeError):
            vm.assign(2, 600.0)

    def test_terminate_busy_rejected(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        vm.assign(1, 500.0)
        with pytest.raises(RuntimeError):
            vm.terminate(300.0)

    def test_terminate_idle(self):
        vm = make_vm()
        vm.boot_complete(120.0)
        vm.terminate(3600.0)
        assert vm.state is VMState.TERMINATED
        assert not vm.alive
        assert vm.terminate_time == 3600.0

    def test_terminate_twice_rejected(self):
        vm = make_vm()
        vm.terminate(10.0)
        with pytest.raises(RuntimeError):
            vm.terminate(20.0)

    def test_release_when_not_busy_rejected(self):
        with pytest.raises(RuntimeError):
            make_vm().release_job()


class TestProviderConfig:
    def test_defaults_match_paper(self):
        cfg = ProviderConfig()
        assert cfg.max_vms == 256
        assert cfg.boot_delay == 120.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ProviderConfig(max_vms=0)
        with pytest.raises(ValueError):
            ProviderConfig(boot_delay=-1.0)


class TestProvider:
    def test_lease_grants_and_counts(self):
        p = CloudProvider()
        vms = p.lease(3, now=0.0)
        assert len(vms) == 3
        assert p.leased_count() == 3
        assert all(vm.ready_time == 120.0 for vm in vms)
        assert p.leases_total == 3

    def test_lease_respects_cap(self):
        p = CloudProvider(ProviderConfig(max_vms=5))
        assert len(p.lease(10, 0.0)) == 5
        assert len(p.lease(1, 0.0)) == 0
        assert p.headroom() == 0

    def test_lease_negative_rejected(self):
        with pytest.raises(ValueError):
            CloudProvider().lease(-1, 0.0)

    def test_vm_ids_unique_and_stable(self):
        p = CloudProvider()
        a = p.lease(2, 0.0)
        b = p.lease(2, 10.0)
        ids = [vm.vm_id for vm in a + b]
        assert len(set(ids)) == 4

    def test_terminate_books_charge(self):
        p = CloudProvider()
        (vm,) = p.lease(1, 0.0)
        vm.boot_complete(120.0)
        charge = p.terminate(vm, 30 * 60.0)
        assert charge == HOUR
        assert p.charged_seconds_total == HOUR
        assert p.leased_count() == 0

    def test_terminate_foreign_vm_rejected(self):
        p = CloudProvider()
        alien = make_vm(vm_id=999)
        with pytest.raises(KeyError):
            p.terminate(alien, 100.0)

    def test_fleet_queries(self):
        p = CloudProvider()
        vms = p.lease(3, 0.0)
        assert len(p.booting_vms()) == 3
        for vm in vms:
            vm.boot_complete(120.0)
        assert len(p.idle_vms()) == 3
        vms[0].assign(1, 1_000.0)
        assert len(p.busy_vms()) == 1
        assert p.available_count() == 2

    def test_terminate_all_skips_busy(self):
        p = CloudProvider()
        vms = p.lease(2, 0.0)
        for vm in vms:
            vm.boot_complete(120.0)
        vms[0].assign(1, 10_000.0)
        p.terminate_all(200.0)
        assert p.leased_count() == 1
        assert p.charged_seconds_total == HOUR

    def test_accrued_cost_includes_live_fleet(self):
        p = CloudProvider()
        p.lease(2, 0.0)
        assert p.accrued_cost(10.0) == 2 * HOUR
        assert p.accrued_cost(HOUR + 1) == 4 * HOUR

    def test_remaining_paid_and_next_boundary_delegate(self):
        p = CloudProvider()
        (vm,) = p.lease(1, 100.0)
        assert p.remaining_paid(vm, 100.0) == HOUR
        assert p.next_boundary(vm, 100.0) == 100.0 + HOUR


def assert_index_exact(provider: CloudProvider) -> None:
    """``vms()`` is in ascending id order and ``idle_vms()`` equals the
    full-fleet scan it replaced, object for object."""
    fleet = provider.vms()
    ids = [vm.vm_id for vm in fleet]
    assert ids == sorted(ids)
    scan = [vm for vm in fleet if vm.state is VMState.IDLE]
    idle = provider.idle_vms()
    assert [id(vm) for vm in idle] == [id(vm) for vm in scan]
    assert all(vm.owner is provider for vm in fleet)


class TestIdleIndex:
    def test_owner_set_at_lease_and_cleared_at_terminate(self):
        p = CloudProvider()
        vm = p.lease(1, now=0.0)[0]
        assert vm.owner is p
        vm.boot_complete(120.0)
        assert p.idle_vms() == [vm]
        p.terminate(vm, 200.0)
        assert vm.owner is None
        assert p.idle_vms() == []

    @pytest.mark.parametrize("seed", range(4))
    def test_random_direct_lifecycles_keep_index_exact(self, seed):
        """Lease/boot/assign/release/terminate/preempt/finalize_reserved
        driven by direct ``VM`` and provider calls, with pickle round
        trips mid-sequence."""
        import pickle
        import random

        rng = random.Random(seed)
        p = CloudProvider(ProviderConfig(max_vms=24))
        now = 0.0
        for step in range(400):
            now += rng.choice((0.0, 30.0, 130.0))
            by_state = {s: [vm for vm in p.vms() if vm.state is s]
                        for s in VMState}
            op = rng.randrange(8)
            if op == 0:
                kind = rng.choice(("on-demand", "reserved", "spot"))
                p.lease(rng.randint(1, 4), now, reserved=kind == "reserved",
                        spot=kind == "spot", price=0.3 if kind == "spot" else 1.0)
            elif op == 1 and by_state[VMState.BOOTING]:
                vm = rng.choice(by_state[VMState.BOOTING])
                vm.boot_complete(max(now, vm.ready_time))
            elif op == 2 and by_state[VMState.IDLE]:
                rng.choice(by_state[VMState.IDLE]).assign(step, now + 600.0)
            elif op == 3 and by_state[VMState.BUSY]:
                rng.choice(by_state[VMState.BUSY]).release_job()
            elif op == 4:
                victims = [vm for vm in p.vms()
                           if vm.state is not VMState.BUSY and not vm.reserved]
                if victims:
                    p.terminate(rng.choice(victims), now)
            elif op == 5:
                spots = [vm for vm in p.vms()
                         if vm.spot and vm.state is not VMState.BUSY]
                if spots:
                    p.preempt(rng.choice(spots), now)
            elif op == 6 and rng.random() < 0.2:
                p.finalize_reserved(now)
            elif op == 7 and rng.random() < 0.3:
                p = pickle.loads(pickle.dumps(p))
            assert_index_exact(p)
        p.terminate_all(now)
        assert_index_exact(p)

    def test_engine_driven_lifecycles_keep_index_exact(self):
        """The same invariant through the cluster engine, with reserved
        VMs, failures, spot preemption and a mid-run pickle."""
        import pickle

        from repro.cloud.failures import FailureModel
        from repro.cloud.spot import SpotConfig
        from repro.core.scheduler import FixedScheduler
        from repro.experiments.engine import ClusterEngine, EngineConfig
        from repro.policies.combined import policy_by_name
        from repro.workload.synthetic import DAS2_FS0, generate_trace

        jobs = generate_trace(DAS2_FS0, duration=6 * HOUR, seed=29)
        engine = ClusterEngine(
            jobs,
            FixedScheduler(policy_by_name("ODA-UNICEF-FirstFit")),
            config=EngineConfig(
                reserved_vms=2,
                failures=FailureModel(mtbf_seconds=4 * HOUR, seed=3),
                spot=SpotConfig(seed=4, spot_fraction=0.5,
                                preempt_rate_per_hour=1.0),
            ),
        )
        engine.start()
        steps = 0
        while engine.advance(max_events=5):
            assert_index_exact(engine.provider)
            steps += 1
            if steps == 20:
                engine = pickle.loads(pickle.dumps(engine))
                assert_index_exact(engine.provider)
        assert steps > 20
        result = engine.finalize()
        assert_index_exact(engine.provider)
        assert result.spot.preemptions > 0
        assert result.failures > 0
