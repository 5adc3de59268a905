"""The benchmark's layer probes still find and see every layer they time.

``perfbench/spans.py`` replaces module globals of ``swsplit.cli`` and
``swsplit.simulator`` (and a few methods) with timing wrappers.  A name
that is renamed fails when the probes are installed; a name the program
no longer calls through its module records no span.  Both show here, in
a two-step demo run, instead of only in the traced benchmark smoke.
"""
import importlib.util
from pathlib import Path

import pytest

from swsplit import cli

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = ROOT / "demo" / "tidal.txt"
N_SUB = 100   # demo: tau_tilde 300 s / tau 3 s


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probed_layer_records_spans(spans, tmp_path):
    rec, patches = spans.Recorder(), spans.Patches()
    run = cli.run
    spans.install_probes(rec, patches)
    try:
        rc = cli.main(["run", "-c", str(DEMO_CONFIG), "--set", "duration=600",
                       "--set", f"out_dir={tmp_path}"])
    finally:
        patches.restore()
    assert cli.run is run
    assert rc == 0

    probed = set(rec.values)   # one entry per wrapped name
    recorded = {span[0] for span in rec.spans}
    # no restart file in the demo, so only the restart loader stays idle
    assert probed - recorded == {"simulator.restart_load"}

    metrics, _ = spans.layer_metrics(rec, 0)
    assert metrics["mesh.nodes"] == 63
    assert metrics["explicit_step.substeps"] == 2 * N_SUB
    assert metrics["implicit_step.cg_solves"] == 2
    # one wind read and one tide read per outer step
    assert metrics["forcing.lookups"] == 2 + 2
    assert metrics["stability.gate_calls"] == 2
    assert metrics["stability.tau_c_evals"] == 2
    assert metrics["fem.helmholtz_calls"] == 1
    assert metrics["simulator.run_s"] > 0.0
