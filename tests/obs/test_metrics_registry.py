"""Registry: typed metrics, deterministic merge, sidecars, Prometheus."""
import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry,
    MetricsServer,
    get_registry,
    reset_registry,
)
from repro.obs.registry import write_sidecar


class TestTypes:
    def test_counter_accumulates_per_key(self):
        reg = MetricsRegistry()
        c = reg.counter("rounds")
        c.inc()
        c.inc(2, key="sat")
        c.inc(key="sat")
        assert c.value() == 1
        assert c.value("sat") == 3

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_is_last_write(self):
        g = MetricsRegistry().gauge("lag")
        g.set(3.0)
        g.set(1.5)
        assert g.value() == 1.5

    def test_histogram_tracks_count_sum_min_max(self):
        h = MetricsRegistry().histogram("window_seconds")
        for v in (0.5, 0.1, 0.9):
            h.observe(v)
        assert h.value() == {"count": 3, "sum": 1.5, "min": 0.1,
                             "max": 0.9}

    def test_name_collision_across_kinds_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_same_name_same_kind_is_the_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


class TestMerge:
    def _worker_snapshot(self, n):
        reg = MetricsRegistry()
        reg.counter("rounds").inc(n, key="sat")
        reg.gauge("lag").set(float(n))
        reg.histogram("seconds").observe(float(n))
        return reg.snapshot()

    def test_counters_add_and_histograms_combine(self):
        merged = MetricsRegistry()
        merged.merge(self._worker_snapshot(1))
        merged.merge(self._worker_snapshot(3))
        assert merged.counter("rounds").value("sat") == 4
        assert merged.histogram("seconds").value() == {
            "count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
        }

    def test_merge_is_deterministic_in_given_order(self):
        snaps = [self._worker_snapshot(n) for n in (5, 2, 9)]
        a, b = MetricsRegistry(), MetricsRegistry()
        for snap in snaps:
            a.merge(snap)
        for snap in snaps:
            b.merge(snap)
        assert a.snapshot() == b.snapshot()
        # gauges take the last value in merge order
        assert a.gauge("lag").value() == 9.0

    def test_snapshot_roundtrips_through_json(self):
        snap = self._worker_snapshot(2)
        restored = MetricsRegistry()
        restored.merge(json.loads(json.dumps(snap)))
        assert restored.snapshot() == snap

    def test_snapshot_key_order_is_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zebra").inc()
        reg.counter("alpha").inc()
        assert list(reg.snapshot()) == ["alpha", "zebra"]


class TestSidecar:
    def test_write_and_merge_roundtrip(self, tmp_path):
        reg = get_registry()
        reg.counter("worker_rounds").inc(2, key="sat")
        sidecar = write_sidecar(str(tmp_path / "t.jsonl"))
        merged = MetricsRegistry()
        with open(sidecar) as fh:
            merged.merge(json.load(fh))
        assert merged.counter("worker_rounds").value("sat") == 2

    def test_sidecar_is_a_cumulative_overwrite(self, tmp_path):
        reg = get_registry()
        reg.counter("n").inc()
        first = write_sidecar(str(tmp_path / "t.jsonl"))
        reg.counter("n").inc()
        second = write_sidecar(str(tmp_path / "t.jsonl"))
        assert first == second
        with open(second) as fh:
            assert json.load(fh)["n"]["values"][""] == 2

    def test_reset_registry_clears_state(self):
        get_registry().counter("n").inc()
        reset_registry()
        assert get_registry().snapshot() == {}


class TestPrometheus:
    def test_text_format_with_keys(self):
        reg = MetricsRegistry()
        reg.counter("rounds").inc(2, key="sat")
        reg.gauge("lag").set(0.25)
        reg.histogram("seconds").observe(1.5)
        text = reg.to_prometheus()
        assert "# TYPE isopredict_rounds counter" in text
        assert 'isopredict_rounds{key="sat"} 2' in text
        assert "isopredict_lag 0.25" in text
        assert "isopredict_seconds_count 1" in text
        assert "isopredict_seconds_sum 1.5" in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(key='we"ird\nkey')
        assert 'key="we\\"ird\\nkey"' in reg.to_prometheus()

    def test_server_serves_the_live_registry(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(7)
        server = MetricsServer("127.0.0.1:0", registry=reg).start()
        try:
            url = f"http://{server.address}/metrics"
            body = urllib.request.urlopen(url).read().decode()
            assert "isopredict_hits 7" in body
            reg.counter("hits").inc()
            body = urllib.request.urlopen(url).read().decode()
            assert "isopredict_hits 8" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{server.address}/nope"
                )
        finally:
            server.stop()

    def test_import_leaves_the_http_server_out(self):
        # the metrics endpoint imports http.server when it starts, so a
        # plain import of the package and its CLI does not pay for it
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, repro, repro.cli; "
            "print(sorted(m for m in ('http.server', 'socketserver') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"
