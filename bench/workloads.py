"""The benchmark's three workloads.

Constructing a workload is its set-up: it builds the semigroups, draws
every input from the seed and warms the table caches.  ``run_pass`` then
drives the fixed job list through a recorder (see ``run.py``), which
times each operation and keeps what it needs to check the outputs
afterwards.  Checks compare against ``reference`` and never run inside a
timed section.  Library functions are looked up on the package at call
time, so the traced run's rebound wrappers are the ones called.
"""

from __future__ import annotations

import json
import os
import random
from functools import partial

import reference as ref

FUZZY_CHECKS = ("star-assoc", "delta-congruence", "quotient-iso", "subdirect")
CLI_THEOREMS = ("delta-congruence", "quotient-iso")

GENERATORS_40 = [(1, 2, 3, 0), (0, 0, 0, 3)]
GENERATORS_128 = [(1, 2, 3, 0), (0, 0, 2, 3)]
GENERATORS_256 = [(1, 2, 3, 0), (1, 0, 2, 3), (0, 0, 2, 3)]


class Workload:
    name = ""
    why = ""
    check_share = 0.1  # share of call-stream outputs checked against the reference

    def __init__(self, sf, seed: int):
        self.sf = sf
        self.rng = random.Random(seed)
        self._memo: dict = {}
        self.jobs: list[str] = []  # human-readable job list, for the report

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def divisors(self, sg):
        return self.memo(("divisors", sg.table), lambda: ref.divisor_sets(sg.table))

    def draw(self, chain, width: int):
        values = chain.values
        return tuple(values[self.rng.randrange(len(values))] for _ in range(width))

    def warm(self, sg) -> list[int]:
        """Fill the table caches a verification or kernel call would build; returns |D(a)| per a."""
        sf = self.sf
        sg.square_set()
        zero = sf.constant(sg, 0)
        for a in range(sg.order):
            sf.extend_by_zero(sf.restrict(a, zero))
        return [len(sg.divisor_partition(a)[0]) for a in range(sg.order)]

    # checks on call-stream outputs: None when correct, else the reason

    def check_convolve(self, sg, f, g, out):
        if out.values != ref.convolve(sg.table, f.values, g.values):
            return "convolve differs from the reference"

    def check_star(self, sg, f, g, out):
        d = self.divisors(sg)[f.base]
        if out.base != f.base or out.values != ref.star(sg.table, d, f.values, g.values):
            return "star_convolve differs from the reference"

    def check_restrict(self, sg, a, f, out):
        if out.base != a or out.values != ref.restrict(self.divisors(sg)[a], f.values):
            return "restrict differs from the reference"

    def check_extend(self, sg, f, out):
        if out.values != ref.extend_by_zero(sg.order, self.divisors(sg)[f.base], f.values):
            return "extend_by_zero differs from the reference"

    def check_embed(self, sg, f, out):
        d = self.divisors(sg)
        want = tuple(ref.restrict(d[a], f.values) for a in range(sg.order))
        if tuple(c.values for c in out.components) != want:
            return "subdirect_embed differs from the reference"


class ExhaustiveSmall(Workload):
    name = "exhaustive-small"
    why = ("tiny carriers: time goes into millions of microsecond kernel calls, the per-case "
           "driver loop and materialized fuzzy-set universes; the table layer is idle")

    def __init__(self, sf, seed, quick, workdir):
        super().__init__(sf, seed)
        self.k = 1 if quick else 2
        self.order = 2 if quick else 3
        rounds = 1 if quick else 10
        chain = sf.make_chain(self.k)
        families = [("monogenic", 3, 1)] if quick else [("monogenic", 3, 1), ("null", 3), ("left_zero", 3)]
        self.verify_jobs = []
        for name, *params in families:
            sg = sf.catalog(name, *params)
            # chain-2 star-assoc on left_zero(3) takes about 3 s, a pass's worth, so it is left out
            checks = FUZZY_CHECKS[1:] if name == "left_zero" else FUZZY_CHECKS
            self.verify_jobs += [(f"{name}{tuple(params)}", sg, t) for t in checks]
        for _, sg, _ in self.verify_jobs:
            self.warm(sg)
        self.strategy = sf.Exhaustive(chain)

        # call stream: convolve plus star_convolve at every base, on every
        # enumerated semigroup, with fresh chain-2 inputs in every round
        stream_chain = sf.make_chain(2)
        semigroups = [sg for n in range(1, self.order + 1) for sg in sf.enumerate_semigroups(n)]
        widths = [self.warm(sg) for sg in semigroups]
        self.stream = []
        for _ in range(rounds):
            for sg, w in zip(semigroups, widths):
                f = sf.FuzzySet(sg, self.draw(stream_chain, sg.order))
                g = sf.FuzzySet(sg, self.draw(stream_chain, sg.order))
                pairs = [(sf.RestrictedFuzzySet(sg, a, self.draw(stream_chain, w[a])),
                          sf.RestrictedFuzzySet(sg, a, self.draw(stream_chain, w[a])))
                         for a in range(sg.order)]
                self.stream.append((sg, f, g, pairs))

        self.jobs = [f"verify {t} {label} Exhaustive(chain {self.k})" for label, _, t in self.verify_jobs]
        self.jobs += [f"cli verify --all-orders {self.order} --theorem {t} --chain 1" for t in CLI_THEOREMS]
        self.jobs.append(f"call stream: {rounds} rounds of convolve + star_convolve at every base "
                         f"over {len(semigroups)} semigroups of order <= {self.order}, chain 2")

    def cli_text(self, theorem):
        def compute():
            tables = [t for n in range(1, self.order + 1) for t in ref.associative_tables(n)]
            total = sum(ref.exhaustive_cases(theorem, t, 1) for t in tables)
            return f"{theorem} on {len(tables)} semigroups: PASS ({total} cases)\n"
        return self.memo(("cli", theorem), compute)

    def run_pass(self, rec):
        sf = self.sf
        for label, sg, theorem in self.verify_jobs:
            rec.verify(label, sg, theorem, self.strategy,
                       partial(ref.exhaustive_cases, theorem, sg.table, self.k))
        for theorem in CLI_THEOREMS:
            rec.cli(["verify", "--all-orders", str(self.order), "--theorem", theorem, "--chain", "1"],
                    partial(self.cli_text, theorem))
        with rec.job("call stream"):
            for sg, f, g, pairs in self.stream:
                rec.call("fuzzy.convolve", sf.convolve, (f, g), partial(self.check_convolve, sg, f, g))
                for rf, rg in pairs:
                    rec.call("fuzzy.star_convolve", sf.star_convolve, (rf, rg),
                             partial(self.check_star, sg, rf, rg))


class SampledWide(Workload):
    name = "sampled-wide"
    why = ("27- to 128-element carriers, chain 16: each case is a few kernel calls over n^2 "
           "factorization pairs compared as exact Fractions; enumeration barely runs")

    def __init__(self, sf, seed, quick, workdir):
        super().__init__(sf, seed)
        self.chain = sf.make_chain(16)
        self.count = 3 if quick else 40
        rounds = 4 if quick else 24
        ft3 = sf.catalog("full_transformation", 3)
        c40 = sf.transformation_closure(GENERATORS_40)
        self.verify_jobs = [(label, sg, t) for label, sg in (("full_transformation(3)", ft3), ("closure-40", c40))
                            for t in FUZZY_CHECKS]
        self.verify_jobs.append(("full_transformation(3)", ft3, "phi-embedding"))
        for sg in (ft3, c40):
            self.warm(sg)
        self.strategy = sf.Sampled(self.chain, self.count, seed)

        # call stream: convolve and star_convolve make up over half the calls,
        # so call_us_p50 is a kernel latency; bases are spread evenly over
        # the divisor-set sizes so every seed times the same mix
        sg = c40 if quick else sf.transformation_closure(GENERATORS_128)
        widths = self.warm(sg)
        by_width = sorted(range(sg.order), key=lambda a: (widths[a], a))
        self.stream_sg = sg
        self.stream = []
        for r in range(rounds):
            a = by_width[r * sg.order // rounds]
            f = sf.FuzzySet(sg, self.draw(self.chain, sg.order))
            g = sf.FuzzySet(sg, self.draw(self.chain, sg.order))
            self.stream.append((a, f, g, r % 4 == 0))

        self.jobs = [f"verify {t} {label} Sampled(chain 16, {self.count}, seed {seed})"
                     for label, _, t in self.verify_jobs]
        self.jobs.append(f"call stream: {rounds} rounds on the {sg.order}-element closure of "
                         f"convolve x2, restrict x2, star_convolve x2, extend_by_zero, and "
                         f"subdirect_embed every 4th round, chain 16")

    def run_pass(self, rec):
        sf = self.sf
        for label, sg, theorem in self.verify_jobs:
            rec.verify(label, sg, theorem, self.strategy,
                       partial(ref.sampled_cases, theorem, sg.table, self.count))
        sg = self.stream_sg
        with rec.job("call stream"):
            for a, f, g, embed in self.stream:
                fg = rec.call("fuzzy.convolve", sf.convolve, (f, g), partial(self.check_convolve, sg, f, g))
                rec.call("fuzzy.convolve", sf.convolve, (g, f), partial(self.check_convolve, sg, g, f))
                rf = rec.call("decomposition.restrict", sf.restrict, (a, f),
                              partial(self.check_restrict, sg, a, f))
                rg = rec.call("decomposition.restrict", sf.restrict, (a, g),
                              partial(self.check_restrict, sg, a, g))
                if rf is None or rg is None:
                    continue
                rec.call("fuzzy.star_convolve", sf.star_convolve, (rf, rg), partial(self.check_star, sg, rf, rg))
                rec.call("fuzzy.star_convolve", sf.star_convolve, (rg, rf), partial(self.check_star, sg, rg, rf))
                rec.call("decomposition.extend_by_zero", sf.extend_by_zero, (rf,),
                         partial(self.check_extend, sg, rf))
                if embed and fg is not None:
                    rec.call("decomposition.subdirect_embed", sf.subdirect_embed, (fg,),
                             partial(self.check_embed, sg, fg))


class StructureWide(Workload):
    name = "structure-wide"
    why = ("40- to 256-element tables parsed from JSON, then ideal theory and CLI analyze, "
           "decompose and convolve: the table layer, its asserts and the JSON boundary")
    check_share = 1.0

    def __init__(self, sf, seed, quick, workdir):
        super().__init__(sf, seed)
        chain = sf.make_chain(16)
        sizes = (40,) if quick else (40, 128, 256)
        gens = {40: GENERATORS_40, 128: GENERATORS_128, 256: GENERATORS_256}
        # CLI calls on the 256-element file would add about 5 s to every
        # pass, leaving too few passes per run; that table is still parsed
        cli_sizes = (40,) if quick else (128,)
        self.files = {}
        self.sources = {}
        os.makedirs(workdir, exist_ok=True)
        for n in sizes:
            sg = sf.transformation_closure(gens[n])
            self.sources[n] = sg
            path = os.path.join(workdir, f"closure-{n}.json")
            with open(path, "w") as handle:
                json.dump(sf.semigroup_to_json(sg), handle)
            entry = {"semigroup": path}
            if n in cli_sizes:
                for key in ("f", "g"):
                    fs = sf.FuzzySet(sg, self.draw(chain, sg.order))
                    entry[key] = os.path.join(workdir, f"closure-{n}-{key}.json")
                    entry[key + "_values"] = fs.values
                    with open(entry[key], "w") as handle:
                        json.dump(fs.as_dict(), handle)
            self.files[n] = entry
        self.element_strategy = sf.Exhaustive(sf.make_chain(1))
        self.rees_size = 40

        self.jobs = []
        for n in sizes:
            self.jobs.append(f"parse closure-{n}.json with semigroup_from_json, then square_set, "
                             f"principal_ideal, divisor_partition at all {n} bases, kernel, core")
        self.jobs.append("closure-40: rees_congruence of every non-empty non-divisor set; verify "
                         "restriction-rees, kernel-criterion, core-criterion")
        for n in cli_sizes:
            self.jobs.append(f"cli analyze, decompose and convolve on closure-{n}.json")

    def structure(self, n):
        def compute():
            t = self.sources[n].table
            return {"ideals": ref.principal_ideals(t), "divisors": ref.divisor_sets(t),
                    "squares": ref.square_set(t), "kernel": ref.kernel(t), "core": ref.core(t)}
        return self.memo(("structure", n), compute)

    def check_parsed(self, n, out):
        src = self.sources[n]
        if out.names != src.names or out.table != src.table:
            return "parsed semigroup differs from the one written"

    def check_indices(self, n, key, out):
        want = self.structure(n)[key]
        got = None if out is None else out.indices
        if got != want:
            return f"{key} differs from the reference"

    def check_ideal(self, n, s, out):
        if out.indices != self.structure(n)["ideals"][s]:
            return "principal_ideal differs from the reference"

    def check_partition(self, n, a, out):
        d = self.structure(n)["divisors"][a]
        if out[0].indices != d or out[1].indices != frozenset(range(n)) - d:
            return "divisor_partition differs from the reference"

    def check_rees(self, n, rest, out):
        want = {(x, x) for x in range(n)} | {(x, y) for x in rest for y in rest}
        if out.pairs != want:
            return "rees_congruence differs from the reference"

    def cli_text(self, verb, n):
        def compute():
            src, entry = self.sources[n], self.files[n]
            if verb == "analyze":
                return ref.analyze_text(src.names, src.table)
            if verb == "decompose":
                return ref.decompose_text(src.names, src.table, entry["f_values"])
            return ref.convolve_text(src.names, src.table, entry["f_values"], entry["g_values"])
        return self.memo(("cli", verb, n), compute)

    def run_pass(self, rec):
        sf = self.sf
        for n, entry in self.files.items():
            sg, rests = None, []
            with rec.job(f"structure of closure-{n}"):
                obj = rec.step(f"read closure-{n}.json", _read_json, (entry["semigroup"],))[0]
                sg = rec.call("semigroups.semigroup_from_json", sf.semigroup_from_json, (obj,),
                              partial(self.check_parsed, n))
                if sg is None:
                    continue
                rec.call("semigroups.square_set", sg.square_set, (), partial(self.check_indices, n, "squares"))
                rec.call("semigroups.principal_ideal", sg.principal_ideal, (0,), partial(self.check_ideal, n, 0))
                for a in range(n):
                    part = rec.call("semigroups.divisor_partition", sg.divisor_partition, (a,),
                                    partial(self.check_partition, n, a))
                    rests.append(None if part is None else part[1])
                rec.call("semigroups.kernel", sg.kernel, (), partial(self.check_indices, n, "kernel"))
                rec.call("semigroups.core", sg.core, (), partial(self.check_indices, n, "core"))
            if sg is None or n != self.rees_size:
                continue
            # a job of its own, outside the call stream: these ~1 ms calls sit
            # just below the median divisor_partition and would make it jumpy
            with rec.job(f"rees congruences of closure-{n}"):
                for rest in rests:
                    if rest is not None and len(rest):
                        rec.step("semigroups.rees_congruence", sg.rees_congruence, (rest,),
                                 partial(self.check_rees, n, rest.indices))
            for theorem in ("restriction-rees", "kernel-criterion", "core-criterion"):
                rec.verify(f"closure-{n}", sg, theorem, self.element_strategy,
                           partial(ref.element_cases, theorem, sg.table))
        for n, entry in self.files.items():
            if "f" not in entry:
                continue
            path = entry["semigroup"]
            for verb, argv in (("analyze", ["analyze", path]),
                               ("decompose", ["decompose", path, entry["f"]]),
                               ("convolve", ["convolve", path, entry["f"], entry["g"]])):
                rec.cli(argv, partial(self.cli_text, verb, n))


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


WORKLOADS = {w.name: w for w in (ExhaustiveSmall, SampledWide, StructureWide)}
