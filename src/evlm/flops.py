"""Analytical training-cost model: full-attention FLOPs, the four-term
cross-attention FLOPs, and their ratio S.

The totals are computed in exact rational arithmetic (with small-denominator
ratios like 0.2 recognized as 1/5) and returned as floats, so structural
properties such as batch linearity and the second difference over s_img hold
exactly on the *_exact variants. The reported S for the published presets is
deliberately not reconciled with the published 0.24 / 0.077 figures; reports
print both values and their difference.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import ConfigError

# Published ratio figures for the named presets (cross / full).
REFERENCE_S = {"pretrain": 0.24, "continual": 0.077}

_RATIONAL_MAX_DEN = 1000


def _rationalize(x: float | int) -> Fraction:
    """Exact value of x, preferring the small-denominator rational it rounds
    to (0.2 -> 1/5); otherwise the exact binary expansion."""
    if isinstance(x, int):
        return Fraction(x)
    small = Fraction(x).limit_denominator(_RATIONAL_MAX_DEN)
    return small if float(small) == x else Fraction(x)


@dataclass(frozen=True)
class FlopsScenario:
    """One training-cost evaluation point.

    batch and s_txt may be zero (the degenerate rows in the cost tables);
    everything else must be positive and the width ratios must sit in (0, 1].
    """

    batch: int
    s_img: int
    s_txt: int
    h_llm: int
    d_img: int
    r_xc: float = 0.2
    r_xf: float = 0.5
    media_len: int = 16

    def __post_init__(self):
        if self.batch < 0 or self.s_txt < 0:
            raise ConfigError("batch and s_txt must be >= 0")
        if min(self.s_img, self.h_llm, self.d_img, self.media_len) < 1:
            raise ConfigError("s_img, h_llm, d_img, media_len must be positive")
        for name in ("r_xc", "r_xf"):
            r = getattr(self, name)
            if not 0.0 < r <= 1.0:
                raise ConfigError(f"{name}={r} outside (0, 1]")


@dataclass
class FlopsReport:
    scenario: FlopsScenario
    flops_full: float
    flops_cross: float
    ratio: float
    terms: tuple[float, float, float, float]
    preset_name: str | None = None
    reference_ratio: float | None = None


def flops_full_attention_exact(sc: FlopsScenario) -> Fraction:
    """24*B*(s_img+s_txt)*h^2 + 4*B*(s_img+s_txt)^2*h."""
    b, s, h = Fraction(sc.batch), Fraction(sc.s_img + sc.s_txt), Fraction(sc.h_llm)
    return 24 * b * s * h**2 + 4 * b * s**2 * h


def flops_cross_attention_terms_exact(
    sc: FlopsScenario,
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four printed terms: gated-layer projections/FFN over the media+text
    stream, its quadratic attention, visual K/V projection, and the
    query-key/value interaction with the visual sequence."""
    b, h = Fraction(sc.batch), Fraction(sc.h_llm)
    m_txt = Fraction(sc.media_len + sc.s_txt)
    s_img, d_img = Fraction(sc.s_img), Fraction(sc.d_img)
    r_xc, r_xf = _rationalize(sc.r_xc), _rationalize(sc.r_xf)
    t1 = 4 * (6 + r_xc + r_xf) * b * m_txt * h**2
    t2 = 4 * b * m_txt**2 * h
    t3 = 4 * r_xc * b * s_img * d_img * h
    t4 = 4 * r_xc * b * m_txt * s_img * h
    return t1, t2, t3, t4


def flops_cross_attention_exact(sc: FlopsScenario) -> Fraction:
    t1, t2, t3, t4 = flops_cross_attention_terms_exact(sc)
    return t1 + t2 + t3 + t4


def ratio(sc: FlopsScenario, preset_name: str | None = None) -> FlopsReport:
    """S = cross / full plus the term breakdown; errors on a zero denominator."""
    full = flops_full_attention_exact(sc)
    if full == 0:
        raise ConfigError("S is undefined: full-attention FLOPs are zero")
    cross = flops_cross_attention_exact(sc)
    return FlopsReport(
        scenario=sc,
        flops_full=float(full),
        flops_cross=float(cross),
        ratio=float(cross / full),
        terms=tuple(float(t) for t in flops_cross_attention_terms_exact(sc)),
        preset_name=preset_name,
        reference_ratio=REFERENCE_S.get(preset_name) if preset_name else None,
    )


def preset(name: str) -> FlopsScenario:
    """The two published training stages: multimodal pre-training (visual
    length 256) and continual pre-training (visual length 1024), both at
    h=5120, d=1792, r_xc=0.2, r_xf=0.5, 64 text tokens, 16 media tokens."""
    if name == "pretrain":
        return FlopsScenario(batch=1, s_img=256, s_txt=64, h_llm=5120, d_img=1792)
    if name == "continual":
        return FlopsScenario(batch=1, s_img=1024, s_txt=64, h_llm=5120, d_img=1792)
    raise ConfigError(f"unknown preset {name!r} (expected 'pretrain' or 'continual')")


# -- rendering ------------------------------------------------------------------


def _fmt(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


def _report_rows(rep: FlopsReport) -> list[tuple[str, str, str]]:
    """(record key, table label, value) for every reported field, in order."""
    rows = [("scenario", "scenario", rep.preset_name or "custom")]
    rows += [(f.name, f.name, _fmt(getattr(rep.scenario, f.name))) for f in fields(rep.scenario)]
    rows += [(name, name, _fmt(getattr(rep, name))) for name in ("flops_full", "flops_cross")]
    labels = ("proj+ffn", "stream attn", "visual kv", "visual attn")
    for i, (label, term) in enumerate(zip(labels, rep.terms), 1):
        rows.append((f"term{i}", f"  term{i} ({label})", _fmt(term)))
    rows.append(("S", "S (computed)", repr(rep.ratio)))
    if rep.reference_ratio is not None:
        rows.append(("reference_S", "S (reference)", _fmt(rep.reference_ratio)))
        rows.append(("abs_diff", "|difference|", repr(abs(rep.ratio - rep.reference_ratio))))
    return rows


def format_report_record(rep: FlopsReport) -> str:
    """Line-oriented key=value form, parseable without a serializer."""
    return "".join(f"{key}={value}\n" for key, _, value in _report_rows(rep))


def format_report_table(rep: FlopsReport) -> str:
    rows = _report_rows(rep)
    width = max(len(label) for _, label, _ in rows)
    return "".join(f"{label.ljust(width)}  {value}\n" for _, label, value in rows)
