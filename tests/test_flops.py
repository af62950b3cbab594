"""Cost-model fidelity against an independent exact-arithmetic oracle.

The preset expectations below were computed with rational arithmetic before
the module was written and are frozen here as integers.
"""

import random
from fractions import Fraction

import pytest

from evlm.errors import ConfigError
from evlm.flops import (
    FlopsScenario,
    flops_cross_attention_exact,
    flops_cross_attention_terms_exact,
    flops_full_attention_exact,
    format_report_record,
    preset,
    ratio,
)

# frozen oracle values (exact integers for both presets)
PRETRAIN_FULL = 203_423_744_000
PRETRAIN_CROSS = 58_297_679_872
PRETRAIN_TERMS = (56_203_673_600, 131_072_000, 1_879_048_192, 83_886_080)
CONTINUAL_FULL = 708_753_489_920
CONTINUAL_CROSS = 64_186_482_688
CONTINUAL_TERMS = (56_203_673_600, 131_072_000, 7_516_192_768, 335_544_320)


def oracle_full(sc):
    """Independent long-hand evaluation in exact rationals."""
    s = sc.s_img + sc.s_txt
    return Fraction(24) * sc.batch * s * sc.h_llm * sc.h_llm + Fraction(4) * sc.batch * s * s * sc.h_llm


def oracle_cross(sc):
    rxc = Fraction(sc.r_xc).limit_denominator(1000)
    rxf = Fraction(sc.r_xf).limit_denominator(1000)
    if float(rxc) != sc.r_xc:
        rxc = Fraction(sc.r_xc)
    if float(rxf) != sc.r_xf:
        rxf = Fraction(sc.r_xf)
    ms = sc.media_len + sc.s_txt
    h, b = sc.h_llm, sc.batch
    total = Fraction(4) * (6 + rxc + rxf) * b * ms * h * h
    total += Fraction(4) * b * ms * ms * h
    total += Fraction(4) * rxc * b * sc.s_img * sc.d_img * h
    total += Fraction(4) * rxc * b * ms * sc.s_img * h
    return total


def rel_diff(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


# -- hand and frozen examples ---------------------------------------------------


def test_full_attention_hand_example():
    sc = FlopsScenario(batch=1, s_img=2, s_txt=2, h_llm=1, d_img=1)
    assert float(flops_full_attention_exact(sc)) == 160.0


def test_cross_attention_hand_example():
    sc = FlopsScenario(
        batch=1, s_img=1, s_txt=0, h_llm=1, d_img=1, r_xc=0.5, r_xf=0.5, media_len=16
    )
    assert tuple(map(float, flops_cross_attention_terms_exact(sc))) == (448.0, 1024.0, 2.0, 32.0)
    assert float(flops_cross_attention_exact(sc)) == 1506.0


def test_zero_batch_gives_zero():
    sc = FlopsScenario(batch=0, s_img=4, s_txt=4, h_llm=8, d_img=8)
    assert float(flops_full_attention_exact(sc)) == 0.0
    assert float(flops_cross_attention_exact(sc)) == 0.0
    assert tuple(map(float, flops_cross_attention_terms_exact(sc))) == (0.0, 0.0, 0.0, 0.0)


def test_pretrain_preset_frozen_values():
    sc = preset("pretrain")
    assert (sc.s_img, sc.s_txt, sc.h_llm, sc.d_img) == (256, 64, 5120, 1792)
    assert float(flops_full_attention_exact(sc)) == float(PRETRAIN_FULL)
    assert float(flops_cross_attention_exact(sc)) == float(PRETRAIN_CROSS)
    assert tuple(map(float, flops_cross_attention_terms_exact(sc))) == tuple(float(t) for t in PRETRAIN_TERMS)


def test_continual_preset_frozen_values():
    sc = preset("continual")
    assert (sc.s_img, sc.s_txt, sc.h_llm, sc.d_img) == (1024, 64, 5120, 1792)
    assert float(flops_full_attention_exact(sc)) == float(CONTINUAL_FULL)
    assert float(flops_cross_attention_exact(sc)) == float(CONTINUAL_CROSS)
    assert tuple(map(float, flops_cross_attention_terms_exact(sc))) == tuple(float(t) for t in CONTINUAL_TERMS)


def test_presets_share_hidden_sizes():
    a, b = preset("pretrain"), preset("continual")
    assert a.h_llm == b.h_llm == 5120
    assert a.d_img == b.d_img == 1792
    assert a.r_xc == b.r_xc == 0.2
    assert a.r_xf == b.r_xf == 0.5


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset("sft")


# -- oracle equality and properties ------------------------------------------------


def rand_scenario(rng):
    return FlopsScenario(
        batch=rng.randint(0, 64),
        s_img=rng.randint(1, 4096),
        s_txt=rng.randint(0, 4096),
        h_llm=rng.randint(1, 8192),
        d_img=rng.randint(1, 4096),
        r_xc=rng.choice([0.2, 0.5, 1.0, 0.25, rng.uniform(1e-6, 1.0)]),
        r_xf=rng.choice([0.2, 0.5, 1.0, 0.125, rng.uniform(1e-6, 1.0)]),
        media_len=rng.choice([16, 1, 8, 64]),
    )


def test_matches_oracle_on_1000_random_scenarios():
    rng = random.Random(2024)
    for _ in range(1000):
        sc = rand_scenario(rng)
        assert rel_diff(float(flops_full_attention_exact(sc)), float(oracle_full(sc))) < 1e-12
        assert rel_diff(float(flops_cross_attention_exact(sc)), float(oracle_cross(sc))) < 1e-12


def test_batch_linearity_exact():
    rng = random.Random(7)
    for _ in range(100):
        sc = rand_scenario(rng)
        doubled = FlopsScenario(
            batch=2 * sc.batch if sc.batch else 2,
            s_img=sc.s_img,
            s_txt=sc.s_txt,
            h_llm=sc.h_llm,
            d_img=sc.d_img,
            r_xc=sc.r_xc,
            r_xf=sc.r_xf,
            media_len=sc.media_len,
        )
        base = FlopsScenario(
            batch=doubled.batch // 2,
            s_img=sc.s_img,
            s_txt=sc.s_txt,
            h_llm=sc.h_llm,
            d_img=sc.d_img,
            r_xc=sc.r_xc,
            r_xf=sc.r_xf,
            media_len=sc.media_len,
        )
        assert float(flops_full_attention_exact(doubled)) == 2.0 * float(flops_full_attention_exact(base))
        assert float(flops_cross_attention_exact(doubled)) == 2.0 * float(flops_cross_attention_exact(base))


def test_ratio_invariant_under_batch_scaling():
    sc = preset("pretrain")
    sc2 = FlopsScenario(batch=2, s_img=256, s_txt=64, h_llm=5120, d_img=1792)
    assert ratio(sc).ratio == ratio(sc2).ratio


def test_s_img_asymptotics_exact():
    def at(s_img, base):
        return FlopsScenario(
            batch=base.batch,
            s_img=s_img,
            s_txt=base.s_txt,
            h_llm=base.h_llm,
            d_img=base.d_img,
            r_xc=base.r_xc,
            r_xf=base.r_xf,
            media_len=base.media_len,
        )

    rng = random.Random(13)
    for _ in range(50):
        base = rand_scenario(rng)
        if base.batch == 0:
            continue
        s = base.s_img
        f0, f1, f2 = (flops_full_attention_exact(at(s + d, base)) for d in (0, 1, 2))
        second = f2 - 2 * f1 + f0
        assert second == 8 * base.batch * base.h_llm  # constant and positive
        c0, c1, c2 = (flops_cross_attention_exact(at(s + d, base)) for d in (0, 1, 2))
        assert c2 - 2 * c1 + c0 == 0  # linear in s_img


def test_monotone_in_every_contributing_field():
    base = FlopsScenario(batch=2, s_img=8, s_txt=8, h_llm=16, d_img=8, r_xc=0.25, r_xf=0.5)

    def bump(**kw):
        fields = dict(
            batch=base.batch,
            s_img=base.s_img,
            s_txt=base.s_txt,
            h_llm=base.h_llm,
            d_img=base.d_img,
            r_xc=base.r_xc,
            r_xf=base.r_xf,
            media_len=base.media_len,
        )
        fields.update(kw)
        return FlopsScenario(**fields)

    for kw in ({"batch": 3}, {"s_img": 9}, {"s_txt": 9}, {"h_llm": 17}):
        assert float(flops_full_attention_exact(bump(**kw))) > float(flops_full_attention_exact(base))
    for kw in (
        {"batch": 3},
        {"s_img": 9},
        {"s_txt": 9},
        {"h_llm": 17},
        {"d_img": 9},
        {"r_xc": 0.3},
        {"r_xf": 0.6},
        {"media_len": 17},
    ):
        assert float(flops_cross_attention_exact(bump(**kw))) > float(flops_cross_attention_exact(base))


# -- report surface ------------------------------------------------------------------


def test_ratio_report_fields():
    rep = ratio(preset("pretrain"), preset_name="pretrain")
    assert rep.ratio == rep.flops_cross / rep.flops_full
    assert abs(sum(rep.terms) - rep.flops_cross) < 1e-6
    assert rep.reference_ratio == 0.24
    rep2 = ratio(preset("continual"), preset_name="continual")
    assert rep2.reference_ratio == 0.077


def test_zero_denominator_rejected():
    with pytest.raises(ConfigError):
        ratio(FlopsScenario(batch=0, s_img=4, s_txt=4, h_llm=8, d_img=8))


def test_record_format_round_trips():
    rep = ratio(preset("continual"), preset_name="continual")
    record = format_report_record(rep)
    parsed = dict(line.split("=", 1) for line in record.strip().split("\n"))
    assert parsed["scenario"] == "continual"
    assert int(parsed["flops_full"]) == CONTINUAL_FULL
    assert int(parsed["flops_cross"]) == CONTINUAL_CROSS
    assert float(parsed["S"]) == rep.ratio
    assert float(parsed["reference_S"]) == 0.077
    assert all(f"term{i}" in parsed for i in (1, 2, 3, 4))


def test_scenario_validation():
    with pytest.raises(ConfigError):
        FlopsScenario(batch=-1, s_img=1, s_txt=1, h_llm=1, d_img=1)
    with pytest.raises(ConfigError):
        FlopsScenario(batch=1, s_img=0, s_txt=1, h_llm=1, d_img=1)
    with pytest.raises(ConfigError):
        FlopsScenario(batch=1, s_img=1, s_txt=1, h_llm=1, d_img=1, r_xc=0.0)
    with pytest.raises(ConfigError):
        FlopsScenario(batch=1, s_img=1, s_txt=1, h_llm=1, d_img=1, r_xf=1.5)
