"""The benchmark's tracer (perfbench/tracing.py) wraps panelqa functions at
the module attributes their callers look them up through. Each of those
import sites must exist, so removing one fails here as well as in the
benchmark's own smoke test."""
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_is_restored():
    tracing = load_tracing()
    sites = [(tracing.tensor.Tensor, "_make")] + [
        (owner, attr) for owner, attr, _ in tracing.TARGETS]
    for owner, attr in sites:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
    originals = [vars(owner)[attr] for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(sites, originals):
            assert vars(owner)[attr] is not original, f"{attr} not wrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(sites, originals):
        assert vars(owner)[attr] is original, f"{attr} not restored"


def test_traced_cli_command_records_its_span(tmp_path, capsys):
    """`cli.main` must look its handler up on the module at call time, or the
    benchmark's `cli.gen_data.s` reads 0 while the wrapper is installed."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.cli.main(["gen-data", "--out", str(tmp_path / "d"),
                                 "--bases", "1", "--levels", "2",
                                 "--image-hw", "8"]) == 0
    finally:
        tracer.uninstall()
    assert "cli.gen_data" in [span[0] for span in tracer.spans]
