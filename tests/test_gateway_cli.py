"""The ``repro gateway`` subcommand and the gateway bench workload."""

import json
import os

import pytest

from repro import obs
from repro.cli import main

FAST = [
    "gateway",
    "--demo-tenants", "2",
    "--plan", "small",
    "--objects", "4",
    "--transport", "inline",
]


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _delta_lines(out):
    return [line for line in out.splitlines() if "[t=" in line]


class TestGatewayCommand:
    def test_run_and_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        code = main(
            FAST + [
                "--partitions", "2",
                "--seconds", "4",
                "--quiet",
                "--checkpoint", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4 second(s) x 2 tenant(s) over 2 partition(s) [ok]" in out
        assert f"checkpoint -> {path}" in out
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_restore_at_a_different_partition_count(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        assert main(
            FAST + [
                "--partitions", "2",
                "--seconds", "3",
                "--quiet",
                "--checkpoint", str(path),
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            FAST + [
                "--restore", str(path),
                "--partitions", "3",
                "--seconds", "2",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "restored 2 tenant(s)" in out
        assert "at 3 partition(s)" in out
        assert "served 2 second(s)" in out

    def test_restore_defaults_to_the_checkpointed_partitions(
        self, tmp_path, capsys
    ):
        path = tmp_path / "ck.json"
        assert main(
            FAST + [
                "--partitions", "2",
                "--seconds", "2",
                "--quiet",
                "--checkpoint", str(path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            FAST + [
                "--restore", str(path),
                "--seconds", "1",
                "--quiet",
            ]
        ) == 0
        assert "at 2 partition(s)" in capsys.readouterr().out

    def test_restore_needs_a_checkpoint_path(self):
        with pytest.raises(SystemExit):
            main(FAST + ["--seconds", "1", "--restore"])

    def test_restore_of_a_missing_checkpoint_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit, match="re-create"):
            main(FAST + ["--restore", str(tmp_path / "absent.json")])

    def test_partition_counts_print_identical_deltas(self, capsys):
        runs = {}
        for partitions in ("1", "2"):
            assert main(
                FAST + [
                    "--partitions", partitions,
                    "--seconds", "5",
                    "--range", "0,0,12,12",
                    "--knn", "5,5,2",
                ]
            ) == 0
            runs[partitions] = _delta_lines(capsys.readouterr().out)
        assert runs["1"], "expected at least one standing-query delta"
        assert runs["1"] == runs["2"]

    def test_analytics_flag(self, capsys):
        assert main(
            FAST + [
                "--partitions", "2",
                "--seconds", "3",
                "--quiet",
                "--analytics",
            ]
        ) == 0
        assert "analytics_epochs=3" in capsys.readouterr().out

    @pytest.mark.parametrize("policy", ["block", "shed"])
    def test_shed_policy_option_is_gone(self, policy):
        with pytest.raises(SystemExit) as excinfo:
            main(FAST + ["--seconds", "1", "--shed-policy", policy])
        assert excinfo.value.code == 2

    def test_unknown_tenant_backend_is_refused_before_forking(
        self, tmp_path, monkeypatch
    ):
        import repro.gateway

        def no_coordinator(*args, **kwargs):
            raise AssertionError("a coordinator was built for an invalid tenant")

        monkeypatch.setattr(repro.gateway, "GatewayCoordinator", no_coordinator)
        tenants = tmp_path / "tenants.json"
        tenants.write_text(json.dumps([
            {"tenant_id": "t0", "seed": 1, "plan": "small"},
            {"tenant_id": "t1", "seed": 2, "plan": "small", "filter_backend": "bogus"},
        ]))
        with pytest.raises(SystemExit, match="unknown filter backend 'bogus'"):
            main([
                "gateway", "--tenants", str(tenants), "--transport", "process",
                "--partitions", "2", "--seconds", "2", "--quiet",
            ])


class TestGatewayBenchWorkload:
    def test_registered_in_the_suite(self):
        from repro.bench.suite import _WORKLOADS

        assert "gateway_throughput" in {name for name, _fn in _WORKLOADS}
