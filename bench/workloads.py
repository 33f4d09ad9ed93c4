"""The four workloads: their questions, and how each answer is checked.

A question is one public call whose answer a user acts on.  Each
workload builds a fresh list of questions per pass from
``(seed, pass)``, so no family is asked about twice and a cache keyed on
a family cannot help across passes.  ``cli`` is the exception: its
problem files are written once at set-up and every pass re-reads them,
as repeated command-line runs would.

Checks run outside the timed region.  A check returns ``None`` for a
correct answer or a :class:`Failure`:

* ``wrong``: the benchmark's oracle rejects the answer;
* ``error``: an exception outside the question's documented outcomes,
  or the command line exiting 2 on a valid input.

Mix and sizes per pass are set so that the median latency falls inside
the common size class and the 90th percentile inside the heavy one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import inputs
import oracle


@dataclass(frozen=True)
class Failure:
    category: str  # "wrong" or "error"
    message: str


@dataclass
class Question:
    kind: str
    ask: Callable[[], Any]
    check: Callable[[Any], Optional[Failure]]
    documented: tuple = ()


def _wrong(message: str | None) -> Optional[Failure]:
    return None if message is None else Failure("wrong", message)


def _lazy(make):
    """Memoised zero-argument factory, for references built on demand."""
    box = []

    def get():
        if not box:
            box.append(make())
        return box[0]

    return get


class Lib:
    """The library modules, looked up by attribute at every call so the
    tracer's patched functions are the ones called."""

    def __init__(self):
        import qhistories.cli
        import qhistories.cli.files
        from qhistories import (consistency, errors, histories, individuality,
                                matcore, mirror, sampling, scenarios)
        self.cli = qhistories.cli
        self.files = qhistories.cli.files
        self.consistency = consistency
        self.errors = errors
        self.histories = histories
        self.individuality = individuality
        self.matcore = matcore
        self.mirror = mirror
        self.sampling = sampling
        self.scenarios = scenarios

    def family(self, slots):
        mc, hs = self.matcore, self.histories
        return hs.HistoryFamily(tuple(
            hs.make_resolution([mc.validate_projection(m) for m in slot])
            for slot in slots))

    def density(self, m):
        return self.matcore.validate_density(m)


def _labels(sizes) -> list[str]:
    return ["(" + ",".join(str(i + 1) for i in idx) + ")"
            for idx in itertools.product(*(range(n) for n in sizes))]


# ---------------------------------------------------------------- families

# (dim, events per slot): N = 9, 8, 16 and 12 elementary histories with
# 49, 27, 225 and 63 members.
SMALL_SHAPES = ((6, (3, 3)), (4, (2, 2, 2)), (8, (4, 4)), (9, (2, 3, 2)))
HEAVY_SHAPE = (16, (4, 4, 4))  # N = 64
HEAVY_PER_PASS = 4

_NOTIONS = (  # (checker, notion, reference method)
    ("check_weak_decoherence", "weak", "weak"),
    ("check_medium_decoherence", "medium", "medium"),
    ("check_linear_positivity", "linear-positive", "linear_positivity"),
    ("check_C1_family", "C1-compat", "c1"),
)


class Families:
    name = "families"

    def __init__(self, lib: Lib, seed: int, workdir: Path):
        self.lib, self.seed = lib, seed

    def questions(self, pass_index: int) -> list[Question]:
        rng = inputs.rng_for(self.seed, self.name, pass_index)
        out = []
        for i, (d, events) in enumerate(SMALL_SHAPES):
            slots, rho = inputs.family(d, events, i % 2 == 0, rng)
            out += self._family_questions("small", slots, rho)
        for i in range(HEAVY_PER_PASS):
            d, events = HEAVY_SHAPE
            slots, rho = inputs.family(d, events, i % 2 == 0, rng)
            out += self._family_questions("heavy", slots, rho)
        return out

    def _family_questions(self, size: str, slots, rho) -> list[Question]:
        lib = self.lib
        family, state = lib.family(slots), lib.density(rho)
        ref = _lazy(lambda: oracle.DenseFamily(slots, rho))
        qs = []
        for checker, notion, method in _NOTIONS:
            qs.append(Question(
                f"{notion}/{size}",
                lambda c=checker: getattr(lib.consistency, c)(family, state),
                lambda r, n=notion, m=method: _wrong(
                    oracle.compare_report(r, getattr(ref(), m)(), n))))
        if oracle.member_count(slots) <= oracle.MEMBER_CAP:
            qs.append(Question(
                f"sum-rule/{size}",
                lambda: lib.consistency.check_sum_rule(family, state),
                lambda r: _wrong(oracle.compare_report(
                    r, ref().sum_rule(), "sum-rule"))))
            qs.append(Question(
                f"ordered/{size}",
                lambda: lib.consistency.check_ordered_consistency(family, state),
                lambda r: self._check_ordered(r, ref()),
                documented=(lib.errors.PreconditionFailed,)))
        return qs

    def _check_ordered(self, answer, ref) -> Optional[Failure]:
        medium = ref.medium().verdict
        if isinstance(answer, self.lib.errors.PreconditionFailed):
            return None if medium in (False, None) else Failure(
                "wrong", "ordered refused a medium-decohering family")
        if medium is False:
            return Failure("wrong", "ordered ran on a family that is not "
                                    "medium-decohering")
        return _wrong(oracle.compare_report(answer, ref.ordered(), "ordered"))


# ----------------------------------------------------------------- mirrors

# Spatial dimensions of the pointer models (the model is twice that) and
# dimensions of the generic families, about a quarter of the questions.
# By latency, the dimension-6 models are the heavy class and the rest,
# generic families included, the common one.
POINTER_DIMS = (2, 2, 2, 2, 2, 2, 3, 3, 3)
GENERIC_DIMS = (4, 5, 6)


def pointer_slots(psi1, psi2, p1, p2, e2):
    """The event matrices of the library's pointer-model assembly, in its
    slot order: first-slot rows ``(event, mirror name)``, the final
    events, the mirror matrices by name, and the joint state vector."""
    s = psi1.size
    eye2, eye_s = np.eye(2), np.eye(s)
    e1, f1 = np.kron(p1, eye2), np.kron(p2, eye2)
    mirrors = {"T": np.kron(eye_s, inputs.KET1), "U": np.kron(eye_s, inputs.KET0),
               "Z": np.zeros((2 * s, 2 * s), dtype=complex)}
    first = [(e1, "T"), (f1, "U")]
    rest = np.eye(2 * s) - e1 - f1
    if np.max(np.abs(rest)) > oracle.TOL_OP:
        first.append((rest, "Z"))
    second = [e2]
    comp = np.eye(2 * s) - e2
    if np.max(np.abs(comp)) > oracle.TOL_OP:
        second.append(comp)
    psi = (np.kron(psi1, [0.0, 1.0]) + np.kron(psi2, [1.0, 0.0])) / math.sqrt(2.0)
    return first, second, mirrors, psi


def _events_by_label(first, second) -> dict:
    labels = _labels((len(first), len(second)))
    pairs = [(row[0], e) for row in first for e in second]
    return dict(zip(labels, pairs))


def _check_self_decoherence(report, events_by_label, rho,
                            must_hold: bool) -> Optional[str]:
    if set(report.per_history) != set(events_by_label):
        return f"per-history labels {sorted(report.per_history)}"
    for label, cert in report.per_history.items():
        if cert is not None:
            why = oracle.check_certificate(cert, events_by_label[label], rho)
            if why:
                return f"{label}: {why}"
    holds = all(c is not None and c.verified for c in report.per_history.values())
    if report.verdict != holds:
        return f"verdict {report.verdict} disagrees with its certificates"
    if must_hold and not report.verdict:
        missing = [k for k, c in report.per_history.items() if c is None]
        return f"pointer model not self-decohering (no mirror for {missing})"
    return None


class Mirrors:
    name = "mirrors"

    def __init__(self, lib: Lib, seed: int, workdir: Path):
        self.lib, self.seed = lib, seed

    def questions(self, pass_index: int) -> list[Question]:
        rng = inputs.rng_for(self.seed, self.name, pass_index)
        out = [self._pointer(s, rng) for s in POINTER_DIMS]
        for d in GENERIC_DIMS:
            out.insert(len(out) // 2, self._generic(d, rng))
        return out

    def _generic(self, d, rng) -> Question:
        lib = self.lib
        slots, rho = inputs.family(d, (2, 2), False, rng)
        family, state = lib.family(slots), lib.density(rho)
        events = _events_by_label([(m, None) for m in slots[0]], slots[1])
        return Question(
            "generic",
            lambda: lib.mirror.check_self_decoherence(family, state),
            lambda r: _wrong(_check_self_decoherence(r, events, rho, False)))

    def _pointer(self, s, rng) -> Question:
        lib = self.lib
        ingredients = inputs.pointer(s, rng)
        model = lib.sampling.assemble_pointer_model(*ingredients)
        first, second, _, psi = pointer_slots(*ingredients)
        events = _events_by_label(first, second)
        rho = np.outer(psi, psi.conj())

        def ask():
            m = lib.mirror
            sd = m.check_self_decoherence(model.family, model.rho)
            cert_t = m.verify_mirror(model.t, model.h1, model.rho)
            cert_u = m.verify_mirror(model.u, model.h2, model.rho)
            occ = m.occurrence_probability(model.h1, model.t, model.rho)
            prop = m.proposition1_check(model.t, model.u, model.h1, model.h2,
                                        model.psi)
            bound = m.contrary_bound_check(model.h1, model.h2, (cert_t, cert_u),
                                           model.rho)
            return sd, cert_t, cert_u, occ, prop, bound

        def check(answer):
            sd, cert_t, cert_u, occ, prop, bound = answer
            e1, f1, e2 = first[0][0], first[1][0], second[0]
            why = _check_self_decoherence(sd, events, rho, True)
            for cert, ev in ((cert_t, (e1, e2)), (cert_u, (f1, e2))):
                why = why or oracle.check_certificate(cert, ev, rho)
                if not why and not cert.verified:
                    why = "record mirror does not verify"
            p1 = oracle.probability([e1, e2], rho)
            p2 = oracle.probability([f1, e2], rho)
            if not why and abs(occ.value - p1) > oracle.RESIDUAL_ATOL:
                why = f"occurrence probability {occ.value!r}, expected {p1!r}"
            cross = abs(np.vdot(psi, e1 @ e2 @ f1 @ psi))
            if not why and (not prop.passed or oracle.residual_mismatch(
                    prop.cross_term_residual, cross)):
                why = f"proposition 1 failed: {prop}"
            bound_residual = p1 + p2 - float(np.trace(e2 @ rho).real)
            want = oracle.verdict_of(bound_residual)
            if not why and (oracle.residual_mismatch(bound.bound_residual,
                                                     bound_residual)
                            or want not in (None, bound.passed)):
                why = f"contrary bound {bound.bound_residual!r}, expected {bound_residual!r}"
            return _wrong(why)

        return Question(f"pointer-{2 * s}", ask, check)


# ---------------------------------------------------------------- mixtures

LAMS = tuple(round(0.1 * k, 1) for k in range(1, 10))  # 9 weights, 11 states
EXAMPLE1_ANGLES = 2
RANDOM_FAMILIES = ((3, (2, 2)), (4, (2, 2)))
MIX_POINTERS = 5

_PROPERTIES = (  # (predicate factory, reference method)
    ("weak_decoherence_property", "weak"),
    ("medium_decoherence_property", "medium"),
    ("linear_positivity_property", "linear_positivity"),
)


class Mixtures:
    name = "mixtures"

    def __init__(self, lib: Lib, seed: int, workdir: Path):
        self.lib, self.seed = lib, seed

    def questions(self, pass_index: int) -> list[Question]:
        lib = self.lib
        rng = inputs.rng_for(self.seed, self.name, pass_index)
        out = []
        for _ in range(EXAMPLE1_ANGLES):
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            alpha = float(rng.uniform(0.0, math.pi))
            inst = lib.scenarios.build_example1(theta, alpha)
            slots = [[np.asarray(e.matrix) for e in r.events]
                     for r in inst.family.resolutions]
            out += self._properties("example1", inst.family, slots,
                                    inst.rho1, inst.rho2)
        for d, events in RANDOM_FAMILIES:
            slots, _ = inputs.family(d, events, False, rng)
            rho1, rho2 = (lib.density(inputs.pure_state(d, rng)) for _ in range(2))
            out += self._properties("random", lib.family(slots), slots, rho1, rho2)
        for _ in range(MIX_POINTERS):
            model = lib.sampling.assemble_pointer_model(*inputs.pointer(2, rng))
            lam = float(rng.uniform(0.05, 0.95))
            out += self._pointer_questions(model, lam)
        return out

    def _properties(self, source, family, slots, rho1, rho2) -> list[Question]:
        lib = self.lib
        m1, m2 = np.asarray(rho1.matrix), np.asarray(rho2.matrix)
        qs = []
        for factory, method in _PROPERTIES:
            def ask(factory=factory):
                prop = getattr(lib.individuality, factory)(family)
                return lib.individuality.individuality_violation_search(
                    prop, rho1, rho2, lams=LAMS)

            def check(witnesses, method=method):
                def holds(rho):
                    return getattr(oracle.DenseFamily(slots, rho), method)().verdict
                on1, on2 = holds(m1), holds(m2)
                got = {w.lam for w in witnesses}
                if not got <= set(LAMS):
                    return Failure("wrong", f"witnesses off the grid: {sorted(got)}")
                for lam in LAMS:
                    on_mix = holds(lam * m1 + (1.0 - lam) * m2)
                    if None in (on1, on2, on_mix):
                        continue
                    if (on_mix and not on1 and not on2) != (lam in got):
                        return Failure("wrong", f"{method} witness at lam={lam}: "
                                                f"got {lam in got}")
                return None

            qs.append(Question(f"{method}/{source}", ask, check))
        return qs

    def _pointer_questions(self, model, lam) -> list[Question]:
        lib = self.lib
        ind = lib.individuality

        def no_witnesses(witnesses):
            # A mirror verified on the mixture verifies on each component,
            # so self-decoherence never has a witness.
            return _wrong(f"self-decoherence witnesses at {[w.lam for w in witnesses]}"
                          if witnesses else None)

        def decomposition(report):
            t, e1 = np.asarray(model.t.matrix), np.asarray(model.e1.matrix)
            d_t, d_e = t - e1 @ t, e1 - e1 @ t
            want = [float(np.trace(d @ r).real) for r in
                    (np.asarray(model.rho1.matrix), np.asarray(model.rho2.matrix))
                    for d in (d_t, d_e)]
            if any(oracle.residual_mismatch(a, b) for a, b in zip(report.traces, want)):
                return Failure("wrong", f"component traces {report.traces}, "
                                        f"expected {want}")
            return _wrong(None if report.passed else "decomposition failed")

        return [
            Question("self-decoherence/provided",
                     lambda: ind.individuality_violation_search(
                         ind.self_decoherence_property(
                             model.family, provided=model.provided_mirrors),
                         model.rho1, model.rho2, lams=LAMS),
                     no_witnesses),
            Question("self-decoherence/search",
                     lambda: ind.individuality_violation_search(
                         ind.self_decoherence_property(model.family),
                         model.rho1, model.rho2, lams=LAMS),
                     no_witnesses),
            Question("component-decomposition",
                     lambda: ind.mirror_component_decomposition(
                         model.t, model.e1, model.rho1, model.rho2, lam),
                     decomposition),
        ]


# --------------------------------------------------------------------- cli

# Per pass, in both formats: 4 example2 runs, 2 mirror and 2 prop1 runs
# under the 3 pointer-problem checks (the median), and 3 example1 runs
# (a fifth of the questions) as the heavy class.
EXAMPLE1_RUNS = 3
EXAMPLE2_RUNS = ((2, (1,)), (2, (2,)), (3, (1, 3)), (3, (2,)))
SWEEP_STEPS = 12
ALL_NOTIONS = ("weak", "medium", "linear-positive", "ordered", "sum-rule",
               "C1-compat", "self-decoherence")


def _matrix_json(m) -> dict:
    m = np.asarray(m)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _table_verdicts(text: str) -> dict[str, Optional[bool]]:
    """Notion verdicts read back from ``--format table`` output."""
    words = {"pass": True, "FAIL": False, "n/a": None}
    lines = text.splitlines()
    out = {}
    for line in lines[3:]:
        if not line.strip():
            break
        if line.startswith(" "):
            continue
        out[line[:18].strip()] = words[line[18:27].strip()]
    return out


@dataclass
class CliCase:
    """One command line and the library calls that give its verdicts."""

    kind: str
    argv: list[str]
    expected: Callable[[], dict[str, Optional[bool]]]
    csv_rows: Optional[Callable[[], list[dict]]] = None
    also: Optional[Callable[[dict], Optional[str]]] = None  # a further check


class Cli:
    name = "cli"

    def __init__(self, lib: Lib, seed: int, workdir: Path):
        self.lib, self.seed, self.dir = lib, seed, workdir
        rng = inputs.rng_for(seed, self.name, 0)
        self.cases: list[CliCase] = []
        self._heavy(rng)
        for i, s in enumerate((2, 2, 3)):
            self._pointer_problem(s, rng, mirror_commands=i == 0)
        self._examples(rng)
        self._sweeps(rng)
        self._large_problem(rng)

    def questions(self, pass_index: int) -> list[Question]:
        return [self._question(i, c) for i, c in enumerate(self.cases)]

    # -- problem files --------------------------------------------------
    def _write(self, name: str, slots, rho, extra_ops=None, mirrors=None) -> Path:
        ops, resolutions = {}, []
        for k, slot in enumerate(slots):
            names = []
            for i, m in enumerate(slot):
                ops[f"S{k + 1}E{i + 1}"] = _matrix_json(m)
                names.append(f"S{k + 1}E{i + 1}")
            resolutions.append(names)
        ops["RHO"] = _matrix_json(rho)
        for key, m in (extra_ops or {}).items():
            ops[key] = _matrix_json(m)
        doc = {"dim": int(rho.shape[0]), "operators": ops,
               "resolutions": resolutions, "state": "RHO"}
        if mirrors:
            doc["mirrors"] = mirrors
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    def _notion_verdicts(self, slots, rho, notions, provided=None):
        """The library's verdict per notion, as ``qhistories check`` runs them."""
        lib = self.lib
        c, e = lib.consistency, lib.errors
        family, state = lib.family(slots), lib.density(rho)
        out = {}
        for n in notions:
            try:
                if n == "self-decoherence":
                    out[n] = lib.mirror.check_self_decoherence(
                        family, state, provided).verdict
                else:
                    fn = {"weak": c.check_weak_decoherence,
                          "medium": c.check_medium_decoherence,
                          "linear-positive": c.check_linear_positivity,
                          "ordered": c.check_ordered_consistency,
                          "sum-rule": c.check_sum_rule,
                          "C1-compat": c.check_C1_family}[n]
                    out[n] = fn(family, state).verdict
            except (e.PreconditionFailed, e.FamilyTooLarge):
                out[n] = None
        return out

    def _both_formats(self, kind, argv, expected, **kw) -> None:
        for fmt in ("report", "table"):
            self.cases.append(CliCase(f"{kind}/{fmt}", argv + ["--format", fmt],
                                      expected, **kw))

    def _heavy(self, rng) -> None:
        d, events = HEAVY_SHAPE
        slots, rho = inputs.family(d, events, False, rng)
        path = self._write("heavy", slots, rho)
        notions = ["linear-positive", "C1-compat"]
        self._both_formats(
            "check-heavy", ["check", str(path), "--notions", ",".join(notions)],
            _lazy(lambda: self._notion_verdicts(slots, rho, notions)))

    def _pointer_problem(self, s, rng, mirror_commands: bool) -> None:
        lib = self.lib
        first, second, mirrors, psi = pointer_slots(*inputs.pointer(s, rng))
        slots = [[m for m, _ in first], second]
        rho = np.outer(psi, psi.conj())
        labels = _labels((len(first), len(second)))
        assigned = {label: first[i // len(second)][1]
                    for i, label in enumerate(labels)}
        path = self._write(f"pointer{len(self.cases)}", slots, rho, mirrors, assigned)

        def expected():
            provided = {label: lib.matcore.validate_projection(mirrors[name])
                        for label, name in assigned.items()}
            return self._notion_verdicts(slots, rho, ALL_NOTIONS, provided)

        self._both_formats("check-pointer", ["check", str(path)], _lazy(expected))
        if not mirror_commands:
            return
        # h1 = (E1, E2) and h2 = (F1, E2) share the first final event.
        h1, h2 = 0, len(second)
        t, u = mirrors["T"], mirrors["U"]

        def histories():
            family, state = lib.family(slots), lib.density(rho)
            return lib.histories.elementary_histories(family), state

        def verify_expected():
            hs, state = histories()
            cert = lib.mirror.verify_mirror(
                lib.matcore.validate_projection(t), hs[h1], state)
            return {"mirror": cert.verified}

        def prop1_expected():
            hs, _ = histories()
            p = lib.mirror.proposition1_check(
                lib.matcore.validate_projection(t), lib.matcore.validate_projection(u),
                hs[h1], hs[h2], psi)
            return {"prop1": p.passed}

        self._both_formats("mirror-verify", [
            "mirror", "verify", "--problem", str(path), "--history", labels[h1],
            "--mirror", "T"], _lazy(verify_expected))
        self._both_formats("prop1", [
            "prop1", "--problem", str(path), "--t", "T", "--u", "U",
            "--h1", labels[h1], "--h2", labels[h2]], _lazy(prop1_expected))

    def _examples(self, rng) -> None:
        lib = self.lib
        for _ in range(EXAMPLE1_RUNS):
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            alpha = float(rng.uniform(0.0, math.pi))
            state = str(rng.choice(["rho", "rho1", "rho2"]))

            def expected(theta=theta, alpha=alpha, state=state):
                inst = lib.scenarios.build_example1(theta, alpha)
                rho = {"rho": inst.rho, "rho1": inst.rho1, "rho2": inst.rho2}[state]
                slots = [[np.asarray(e.matrix) for e in r.events]
                         for r in inst.family.resolutions]
                return self._notion_verdicts(slots, np.asarray(rho.matrix),
                                             ALL_NOTIONS)

            self._both_formats("example1", [
                "example1", "--theta", repr(theta), "--alpha", repr(alpha),
                "--state", state], _lazy(expected),
                also=lambda v: None if v.get("self-decoherence") is False
                else "example 1 came out self-decohering")
        for s, cells in EXAMPLE2_RUNS:
            expected = {n: True for n in ("mirror-T", "mirror-U", "self-decoherence",
                                          "prop1", "contrary-bound")}
            self._both_formats("example2", [
                "example2", "--spatial-dim", str(s),
                "--delta", ",".join(map(str, cells))], lambda e=expected: e)

    def _sweeps(self, rng) -> None:
        lib = self.lib
        theta = float(rng.uniform(0.2, math.pi - 0.2))
        for param, start, stop in (("theta", 0.2, math.pi - 0.2),
                                   ("alpha", 0.0, math.pi), ("lam", 0.1, 0.9)):
            def rows(param=param, start=start, stop=stop):
                out = []
                for v in np.linspace(start, stop, SWEEP_STEPS):
                    v = float(v)
                    inst = lib.scenarios.build_example1(
                        v if param == "theta" else theta,
                        v if param == "alpha" else None)
                    rho = (lib.individuality.mixture(inst.rho1, inst.rho2, v)
                           if param == "lam" else inst.rho1)
                    c = lib.consistency
                    out.append({
                        "weak": c.check_weak_decoherence(inst.family, rho).verdict,
                        "medium": c.check_medium_decoherence(inst.family, rho).verdict,
                        "linear_positive":
                            c.check_linear_positivity(inst.family, rho).verdict,
                        "sum_rule": c.check_sum_rule(inst.family, rho).verdict})
                return out

            self.cases.append(CliCase(
                f"sweep-{param}",
                ["sweep", "--param", param, "--start", repr(start), "--stop",
                 repr(stop), "--steps", str(SWEEP_STEPS), "--theta", repr(theta)],
                lambda: {}, csv_rows=_lazy(rows)))

    def _large_problem(self, rng) -> None:
        """3 slots of the 3 diagonal events and a diagonal state: 343
        members, a valid input that the command line refuses today."""
        diag = [np.diag(np.eye(3)[i]).astype(complex) for i in range(3)]
        rho = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        path = self._write("members343", [diag] * 3, rho)
        # Default notions leave out self-decoherence on a 3-slot family.
        default = [n for n in ALL_NOTIONS if n != "self-decoherence"]
        chosen = ["weak", "medium", "ordered"]
        self.cases.append(CliCase(
            "check-343/report", ["check", str(path), "--format", "report"],
            _lazy(lambda: self._notion_verdicts([diag] * 3, rho, default))))
        self.cases.append(CliCase(
            "check-343/table", ["check", str(path), "--notions", ",".join(chosen),
                                "--format", "table"],
            _lazy(lambda: self._notion_verdicts([diag] * 3, rho, chosen))))

    # -- asking and checking --------------------------------------------
    def _question(self, index: int, case: CliCase) -> Question:
        lib = self.lib
        out_path = self.dir / f"out{index}.txt"
        argv = case.argv + ["--out", str(out_path)]

        def ask():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = lib.cli.main(argv)
            return rc, err.getvalue()

        def check(answer):
            rc, err = answer
            if rc == 2:
                return Failure("error", f"exit 2 on a valid input: {err.strip()}")
            text = out_path.read_text()
            out_path.unlink()
            if case.csv_rows is not None:
                return self._check_csv(text, rc, case.csv_rows())
            want = case.expected()
            if argv[argv.index("--format") + 1] == "report":
                report = lib.files.ReportFile.loads(text)
                got = {n: r.verdict for n, r in report.notions.items()}
            else:
                got = _table_verdicts(text)
            if got != want:
                return Failure("wrong", f"verdicts {got}, library gives {want}")
            want_rc = 0 if all(v is True for v in want.values()) else 1
            if rc != want_rc:
                return Failure("wrong", f"exit {rc}, expected {want_rc}")
            return _wrong(case.also(got) if case.also else None)

        return Question(case.kind, ask, check)

    @staticmethod
    def _check_csv(text, rc, want_rows) -> Optional[Failure]:
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != len(want_rows):
            return Failure("wrong", f"{len(rows)} sweep rows, expected {len(want_rows)}")
        any_fail = False
        for row, want in zip(rows, want_rows):
            for col, verdict in want.items():
                any_fail |= not verdict
                if row[col] != str(verdict).lower():
                    return Failure("wrong", f"sweep {col}={row[col]} at "
                                            f"{row['value']}, library gives {verdict}")
        if rc != (1 if any_fail else 0):
            return Failure("wrong", f"sweep exit {rc}")
        return None


WORKLOADS = {w.name: w for w in (Families, Mirrors, Mixtures, Cli)}
