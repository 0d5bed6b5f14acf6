import dataclasses

import numpy as np
import pytest

from conftest import toy_config
from panelqa import protocols as proto
from panelqa.data import gen_synthetic_dataset
from panelqa.tensor import Rng
from panelqa.training import TrainConfig


def tiny_corpus(seed=0, bases=6, levels=3):
    return gen_synthetic_dataset(bases, levels, ["white_noise"],
                                 Rng(("prot", seed)), hw=16)


def fast_cfgs():
    return (toy_config(),
            TrainConfig(epochs=1, batch_size=16, crops_per_image=1, seed=0))


class TestDeriveSeed:
    def test_deterministic(self):
        assert proto.derive_seed(7, 3) == proto.derive_seed(7, 3)

    def test_distinct_runs(self):
        seeds = {proto.derive_seed(0, r) for r in range(50)}
        assert len(seeds) == 50

    def test_distinct_bases(self):
        assert proto.derive_seed(1, 0) != proto.derive_seed(2, 0)


class TestRunSplitTrainEval:
    def test_reproducible(self):
        man = tiny_corpus()
        mc, tc = fast_cfgs()
        a = proto.run_split_train_eval(man, mc, tc, run_seed=11)
        b = proto.run_split_train_eval(man, mc, tc, run_seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        man = tiny_corpus()
        mc, tc = fast_cfgs()
        a = proto.run_split_train_eval(man, mc, tc, run_seed=1)
        b = proto.run_split_train_eval(man, mc, tc, run_seed=2)
        assert a != b


class TestRepeats:
    def test_structure(self):
        man = tiny_corpus()
        mc, tc = fast_cfgs()
        rep = proto.protocol_repeats(man, mc, tc, repeats=3)
        assert rep.mode == "repeats"
        assert len(rep.results) == 3
        assert len(rep.aggregates) == 1
        agg = rep.aggregates[0]
        srccs = sorted(r.srcc for r in rep.results)
        assert agg.median_srcc == pytest.approx(srccs[1])
        assert agg.n_runs == 3

    def test_default_repeat_count(self):
        import inspect
        sig = inspect.signature(proto.protocol_repeats)
        assert sig.parameters["repeats"].default == 10

    def test_std_matches_numpy(self):
        man = tiny_corpus()
        mc, tc = fast_cfgs()
        rep = proto.protocol_repeats(man, mc, tc, repeats=3)
        s = np.array([r.srcc for r in rep.results])
        assert rep.aggregates[0].std_srcc == pytest.approx(s.std())


class TestDataEfficiency:
    def test_fraction_grid(self):
        assert proto.DATA_EFFICIENCY_FRACTIONS == (0.2, 0.4, 0.6)

    def test_structure_and_shrinking_train_side(self):
        man = tiny_corpus(bases=10)
        mc, tc = fast_cfgs()
        rep = proto.protocol_data_efficiency(man, mc, tc, repeats=1,
                                             fractions=(0.2, 0.6))
        assert rep.mode == "data-efficiency"
        labels = [a.label for a in rep.aggregates]
        assert labels == ["frac=0.20", "frac=0.60"]
        assert len(rep.results) == 2


class TestDepthAblation:
    def test_depth_grid(self):
        assert proto.DEPTH_ABLATION_DEPTHS == (1, 2, 4, 8)

    def test_structure(self):
        man = tiny_corpus()
        mc, tc = fast_cfgs()
        rep = proto.protocol_depth_ablation(man, mc, tc, repeats=1,
                                            depths=(1, 2))
        assert [a.label for a in rep.aggregates] == ["depth=1", "depth=2"]


class TestComponentAblation:
    def test_variant_grid(self):
        assert set(proto.COMPONENT_VARIANTS) == {
            "encoder_only", "panel_no_decoder", "decoder_random_queries",
            "decoder_cls_queries", "full"}
        assert len(proto.COMPONENT_VARIANTS) == 5

    def test_structure(self):
        man = tiny_corpus()
        mc, tc = fast_cfgs()
        rep = proto.protocol_component_ablation(
            man, mc, tc, repeats=1, variants=("encoder_only", "full"))
        assert [a.label for a in rep.aggregates] == [
            "variant=encoder_only", "variant=full"]


class TestTrainFrac:
    """Every mode splits at the ``train_frac`` it is given."""

    @pytest.mark.parametrize("run,grid,key", [
        (proto.protocol_depth_ablation, "depths", "decoder_depth"),
        (proto.protocol_component_ablation, "variants", "variant"),
    ])
    def test_ablation_runs_split_at_train_frac(self, run, grid, key):
        man = tiny_corpus()
        mc, tc = fast_cfgs()
        value = 2 if key == "decoder_depth" else "encoder_only"
        rep = run(man, mc, tc, repeats=2, train_frac=0.5, **{grid: (value,)})
        assert len(rep.results) == 2
        for r in rep.results:
            want = proto.run_split_train_eval(
                man, dataclasses.replace(mc, **{key: value}), tc, r.seed,
                train_frac=0.5)
            assert (r.srcc, r.plcc) == want

    def test_data_efficiency_holds_out_one_minus_train_frac(self):
        man = tiny_corpus(bases=10)
        mc, tc = fast_cfgs()
        rep = proto.protocol_data_efficiency(man, mc, tc, repeats=1,
                                             fractions=(0.4,), train_frac=0.5)
        (r,) = rep.results
        assert (r.srcc, r.plcc) == proto.run_split_train_eval(
            man, mc, tc, r.seed, train_frac=0.5, train_groups=0.4)

    def test_data_efficiency_seeds_follow_the_rounded_percent(
            self, monkeypatch):
        # int(0.29 * 100) is 28: truncation gave 0.28 and 0.29 one seed
        monkeypatch.setattr(proto, "run_split_train_eval",
                            lambda *args, **kwargs: (0.0, 0.0))
        mc, tc = fast_cfgs()
        rep = proto.protocol_data_efficiency(tiny_corpus(bases=10), mc, tc,
                                             repeats=1,
                                             fractions=(0.28, 0.29, 0.57))
        assert [r.seed for r in rep.results] == [
            proto.derive_seed(tc.seed, offset)
            for offset in (28000, 29000, 57000)]
        with pytest.raises(ValueError, match="fractions 0.281 and 0.284 "
                                             "share the seed offset 28000"):
            proto.protocol_data_efficiency(tiny_corpus(bases=10), mc, tc,
                                           repeats=1, fractions=(0.281, 0.284))

    def test_fraction_above_train_frac_rejected_before_any_run(
            self, monkeypatch):
        def fit(*args, **kwargs):
            raise AssertionError("fit was called")

        monkeypatch.setattr(proto, "fit", fit)
        mc, tc = fast_cfgs()
        with pytest.raises(ValueError, match="data-efficiency fraction 0.6 "
                                             "exceeds train_frac 0.5"):
            proto.protocol_data_efficiency(tiny_corpus(), mc, tc, repeats=1,
                                           fractions=(0.2, 0.6),
                                           train_frac=0.5)
        # of 2 groups, fraction 0.2 would train on round(0.4) = 0
        with pytest.raises(ValueError, match="data-efficiency fraction 0.2 "
                                             "keeps none of the 2 groups"):
            proto.protocol_data_efficiency(tiny_corpus(bases=2), mc, tc,
                                           repeats=1)


class TestReportSerialization:
    def test_write_and_lines(self, tmp_path):
        man = tiny_corpus()
        mc, tc = fast_cfgs()
        rep = proto.protocol_repeats(man, mc, tc, repeats=2)
        path = tmp_path / "report.txt"
        rep.write(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "protocol=repeats"
        assert lines[1].startswith("run=0 seed=")
        assert "median_srcc=" in lines[-1]
        assert lines == rep.lines()

    def test_byte_identical_reruns(self, tmp_path):
        mc, tc = fast_cfgs()
        out = []
        for name in ("a", "b"):
            rep = proto.protocol_repeats(tiny_corpus(), mc, tc, repeats=2)
            p = tmp_path / f"{name}.txt"
            rep.write(str(p))
            out.append(p.read_bytes())
        assert out[0] == out[1]
