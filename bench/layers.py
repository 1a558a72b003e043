"""Per-layer figures for a traced run.

Each operation runs under its own cProfile.Profile.  Self time is summed by
source file: a file of the package counts for its module, everything else
(numpy, builtins such as math.comb and int methods, json, the benchmark's
own frames) for ``external``.  Call counts and cumulative times of a few
public functions come from the same entries, and the rook path an
operation took is read from which of them it entered.  The alternating-sum
terms are the only figures that need values, so ``record_terms`` wraps the
two public ``*_terms`` functions of ``closed_forms`` for the run.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from pathlib import Path

MODULES = (
    "sets", "perms", "polynomials", "stats", "closed_forms", "words",
    "configurations", "rook", "hypergeom", "verify", "cli",
)

# (module, qualified name) of the functions whose calls or time are reported
WATCHED = {
    "contains": ("sets", "IntegerSet.__contains__"),
    "des_set": ("stats", "des_set"),
    "word_formula_1": ("words", "word_formula_1"),
    "word_formula_2": ("words", "word_formula_2"),
    "ferrers": ("rook", "ferrers_rook_numbers"),
    "subset_dp": ("rook", "rook_numbers"),
    "permanent": ("rook", "hit_polynomial_permanent"),
    "enumerate": ("configurations", "enumerate_configs"),
    "involution": ("configurations", "involution"),
    "int_mul": ("polynomials", "IntPolynomial.__mul__"),
    "bivar_mul": ("polynomials", "BivarPolynomial.__mul__"),
    "series": ("hypergeom", "eval_terminating"),
    "emit": ("cli", "_emit"),
}
BY_KEY = {v: k for k, v in WATCHED.items()}

PER_LAYER = (
    [f"{m}.self_s" for m in MODULES + ("external",)]
    + [
        "sets.contains_calls", "stats.perms_walked",
        "closed_forms.terms", "closed_forms.cancelled_bits",
        "words.formula_calls",
        "rook.path.ferrers", "rook.path.subset_dp", "rook.path.permanent",
        "rook.subset_dp_s", "rook.permanent_s", "rook.permanent_masks",
        "configurations.configs", "configurations.involution_calls",
        "configurations.fixed_ratio", "configurations.enumerate_s",
        "configurations.involution_s",
        "polynomials.mul_calls", "hypergeom.series", "verify.cases",
        "cli.emit_s", "cli.output_bytes",
        "trace.wall_s", "trace.untraced_s", "trace.overhead_s",
        "trace.unaccounted_s",
    ]
)


class Tracer:
    def __init__(self, package_dir: Path):
        self.package_dir = package_dir.resolve()
        self.modules: dict[str, str] = {}
        self.self_s = dict.fromkeys(MODULES + ("external",), 0.0)
        self.calls = dict.fromkeys(WATCHED, 0)
        self.cumulative = dict.fromkeys(WATCHED, 0.0)
        self.counts = {"subset_dp_paths": 0, "permanent_masks": 0,
                       "terms": 0, "cancelled_bits": 0}
        self.wall = 0.0

    def run(self, op):
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        try:
            return op.run()
        finally:
            profile.disable()
            self.wall += time.perf_counter() - start
            self._absorb(profile.getstats(), op)

    def _module(self, filename: str) -> str:
        if filename not in self.modules:
            path = Path(filename).resolve()
            inside = path.parent == self.package_dir and path.stem in MODULES
            self.modules[filename] = path.stem if inside else "external"
        return self.modules[filename]

    def _absorb(self, entries, op):
        calls = dict.fromkeys(WATCHED, 0)
        for entry in entries:
            code = entry.code
            if isinstance(code, str):  # a builtin
                self.self_s["external"] += entry.inlinetime
                continue
            module = self._module(code.co_filename)
            self.self_s[module] += entry.inlinetime
            key = BY_KEY.get((module, getattr(code, "co_qualname", code.co_name)))
            if key:
                calls[key] += entry.callcount
                self.cumulative[key] += entry.totaltime
        for key, c in calls.items():
            self.calls[key] += c
        # hits_via_foata enters the subset DP first and falls back to the
        # permanent when the DP refuses the board size
        self.counts["subset_dp_paths"] += max(calls["subset_dp"] - calls["permanent"], 0)
        self.counts["permanent_masks"] += calls["permanent"] * 2**op.board_n

    @contextmanager
    def record_terms(self, closed_forms):
        """Count alternating-sum terms and the bits their sum cancels."""
        names = ("formula_alpha_beta_terms", "formula_beta_beta_terms")
        originals = {name: getattr(closed_forms, name) for name in names}

        def wrap(fn):
            def recorded(*args):
                pre, terms = fn(*args)
                if terms:
                    self.counts["terms"] += len(terms)
                    largest = max(abs(t) for t in terms).bit_length()
                    self.counts["cancelled_bits"] += largest - abs(sum(terms)).bit_length()
                return pre, terms
            return recorded

        for name, fn in originals.items():
            setattr(closed_forms, name, wrap(fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(closed_forms, name, fn)

    def metrics(self, rounds: int, untraced_s: float, observed: dict) -> dict:
        """Per-layer figures per traced round; ``observed`` holds counts the
        checks read from outputs (configurations, fixed points, cases, bytes)."""
        c, cum, k = self.calls, self.cumulative, self.counts
        configs = observed.get("configs", 0)
        wall = self.wall / rounds
        values = {f"{m}.self_s": t / rounds for m, t in self.self_s.items()}
        values.update({
            "sets.contains_calls": c["contains"] / rounds,
            "stats.perms_walked": c["des_set"] / rounds,
            "closed_forms.terms": k["terms"] / rounds,
            "closed_forms.cancelled_bits": k["cancelled_bits"] / rounds,
            "words.formula_calls": (c["word_formula_1"] + c["word_formula_2"]) / rounds,
            "rook.path.ferrers": c["ferrers"] / rounds,
            "rook.path.subset_dp": k["subset_dp_paths"] / rounds,
            "rook.path.permanent": c["permanent"] / rounds,
            "rook.subset_dp_s": cum["subset_dp"] / rounds,
            "rook.permanent_s": cum["permanent"] / rounds,
            "rook.permanent_masks": k["permanent_masks"] / rounds,
            "configurations.configs": configs / rounds,
            "configurations.involution_calls": c["involution"] / rounds,
            "configurations.fixed_ratio":
                observed.get("fixed", 0) / configs if configs else 0.0,
            "configurations.enumerate_s": cum["enumerate"] / rounds,
            "configurations.involution_s": cum["involution"] / rounds,
            "polynomials.mul_calls": (c["int_mul"] + c["bivar_mul"]) / rounds,
            "hypergeom.series": c["series"] / rounds,
            "verify.cases": observed.get("cases", 0) / rounds,
            "cli.emit_s": cum["emit"] / rounds,
            "cli.output_bytes": observed.get("output_bytes", 0) / rounds,
            "trace.wall_s": wall,
            "trace.untraced_s": untraced_s,
            "trace.overhead_s": wall - untraced_s,
            "trace.unaccounted_s": wall - sum(self.self_s.values()) / rounds,
        })
        return values
