"""The four workloads: their inputs, one pass of operations, and the checks.

A workload is built from ``--seed`` (set-up), then runs passes.  A pass calls
the program only through ``mcgcert.cli.run`` (in-process) or the public
functions of its modules, looked up on the module at call time so that the
traced run's wrappers see every call.  ``check`` runs after a pass, outside
its timed region, and compares each output with ``checks``, which does not
import the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from math import factorial
from pathlib import Path

from mcgcert import cli, constructions, fpgroup, quasi, stallings, words

import checks

class Workload:
    """Inputs built in ``__init__``; ``ops`` names the operations of a pass,
    in order; ``known_faults`` names those that fail on the program as it
    stands (counted as failed, without making the run incorrect)."""

    ops: tuple = ()
    known_faults: frozenset = frozenset()

    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = tracer

    def run_pass(self):
        raise NotImplementedError

    def check(self, out):
        """Problems found with each operation's output, by operation."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Verify(Workload):
    """The CLI path: the registry, then the sphere-4 and S3 pipelines."""

    ops = ("verify", "coset", "rs_simplify", "abelianize", "s3_coset", "s3_rs")
    # CosetTable.from_json_dict sorts the action keys, so the table of
    # ``gens: b a`` is read back with a and b swapped.
    known_faults = frozenset({"s3_rs"})

    S3_NAMES = ("b", "a")
    S3_RELATORS = ((2, 2), (1, 1, 1), (2, 1, 2, 1))  # a^2, b^3, (ab)^2
    S3_SUBGROUP = ((2,),)  # <a>
    # b -> a 3-cycle, a -> a transposition: a faithful image of S3
    S3_IMAGES = {1: (1, 2, 0), 2: (1, 0, 2)}
    SQUARES = ((1, 1), (2, 2))

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.workdir.mkdir(parents=True, exist_ok=True)
        names4 = ("a", "b", "c")
        self.relators4 = checks.sphere_relators(4)
        self.inputs = {}
        for key, text in (
            ("p4", checks.presentation_text(names4, self.relators4)),
            ("squares", "".join(checks.format_letters(w, names4) + "\n" for w in self.SQUARES)),
            ("s3", checks.presentation_text(self.S3_NAMES, self.S3_RELATORS)),
            ("s3sub", "".join(checks.format_letters(w, self.S3_NAMES) + "\n" for w in self.S3_SUBGROUP)),
        ):
            path = self.workdir / f"{key}.txt"
            path.write_text(text)
            self.inputs[key] = str(path)
        self.first_report = None
        self.unsimplified_h1 = None

    def _cli(self, span, *argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with self.tracer.span(span), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(list(argv))
        return code, stdout.getvalue(), stderr.getvalue()

    def run_pass(self):
        d = self.workdir / "pass"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        i = self.inputs
        out = {"dir": d}
        out["verify"] = self._cli(
            "cli.verify", "verify", "--json", str(d / "report.json"), "--seed", str(self.seed)
        )
        out["coset"] = self._cli(
            "cli.fpg_coset", "fpg", "coset", i["p4"], "--sub", i["squares"], "--json", str(d / "t4.json")
        )
        out["rs_simplify"] = self._cli(
            "cli.fpg_rs", "fpg", "rs", i["p4"], "--table", str(d / "t4.json"), "--simplify", "10000"
        )
        (d / "simplified.txt").write_text(out["rs_simplify"][1])
        out["abelianize"] = self._cli("cli.fpg_abelianize", "fpg", "abelianize", str(d / "simplified.txt"))
        out["s3_coset"] = self._cli(
            "cli.fpg_coset", "fpg", "coset", i["s3"], "--sub", i["s3sub"], "--json", str(d / "t3.json")
        )
        out["s3_rs"] = self._cli("cli.fpg_rs", "fpg", "rs", i["s3"], "--table", str(d / "t3.json"), "--json")
        return out

    def check(self, out):
        d = out["dir"]
        problems = {}
        for op in self.ops:
            code, _, stderr = out[op]
            problems[op] = [] if code == 0 else [f"exit {code}: {stderr.strip()}"]
        if any(problems.values()):
            for op in self.ops:
                problems[op] = problems[op] or ["not checked: another operation failed"]
            return problems

        report = (d / "report.json").read_bytes()
        if self.first_report is None:
            self.first_report = report
        problems["verify"] += checks.check_verify_report(report)
        if report != self.first_report:
            problems["verify"].append("report differs from the first pass's")

        problems["coset"] += self._check_table(d / "t4.json", ("a", "b", "c"), out["coset"][1],
                                               self.relators4, self.SQUARES, factorial(4))
        if self.unsimplified_h1 is None:
            self.unsimplified_h1 = self._check_unsimplified(d / "t4.json", problems["coset"])
        problems["rs_simplify"] += checks.check_free_presentation(out["rs_simplify"][1], 2)
        h1 = out["abelianize"][1].strip()
        if h1 != "Z^2" or h1 != self.unsimplified_h1:
            problems["abelianize"].append(
                f"H1 of the simplified presentation is {h1}, of the unsimplified {self.unsimplified_h1}"
            )

        problems["s3_coset"] += self._check_table(d / "t3.json", self.S3_NAMES, out["s3_coset"][1],
                                                  self.S3_RELATORS, self.S3_SUBGROUP, 3)
        rs = json.loads(out["s3_rs"][1])
        if rs["rank"] != 4:
            problems["s3_rs"].append(f"rank {rs['rank']}, expected 3(2-1)+1 = 4")
        gens = [checks.parse_letters(w, self.S3_NAMES) for w in rs["generator_words"]]
        problems["s3_rs"] += checks.check_words_in_subgroup(gens, self.S3_IMAGES, self.S3_SUBGROUP, 3)
        return problems

    @staticmethod
    def _check_table(path, names, stdout, relators, subgroup, index):
        problems = [] if stdout == f"cosets: {index}\n" else [f"printed {stdout!r}"]
        k, action = checks.action_from_json(json.loads(path.read_text()), names)
        return problems + checks.check_coset_table(k, action, relators, subgroup, index)

    def _check_unsimplified(self, table_path, problems):
        """Schreier counts and H1 of the unsimplified presentation, from the
        library; H1 should agree with the simplified presentation's."""
        p = fpgroup.parse_presentation(Path(self.inputs["p4"]).read_text())
        table = fpgroup.CosetTable.from_json_dict(json.loads(table_path.read_text()))
        rs = fpgroup.reidemeister_schreier(p, table).presentation
        problems += checks.check_schreier_counts(
            table.index, 3, len(self.relators4), rs.alphabet.rank, len(rs.relators)
        )
        return fpgroup.abelianization(rs).describe()


# ---------------------------------------------------------------------------


class PureSphere(Workload):
    """The kernel of the transposition map of the n-punctured sphere."""

    n = 0

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        n = self.n
        self.p = constructions.punctured_sphere_presentation(n)
        self.gens = [self.p.alphabet.word(w) for w in checks.pure_generators(n)]
        self.images = {i: list(perm) for i, perm in checks.transposition_images(n).items()}
        self.checked_rows = None

    def check_common(self, out, problems):
        n, table, rank = self.n, out["todd_coxeter"], self.n - 1
        if [w.letters for w in self.p.relators] != checks.sphere_relators(n):
            problems["todd_coxeter"].append("the program's presentation differs from the benchmark's")
        if table.index != factorial(n):
            problems["todd_coxeter"].append(f"index {table.index}, expected {n}! = {factorial(n)}")
        elif table.rows != self.checked_rows:
            problems["todd_coxeter"] += checks.check_coset_table(
                table.index,
                checks.action_from_rows(table.rows, rank),
                checks.sphere_relators(n),
                checks.pure_generators(n),
                factorial(n),
            )
            if not problems["todd_coxeter"]:
                self.checked_rows = table.rows
        if out["regular_coset_table"].rows != table.rows:
            problems["regular_coset_table"].append("the regular table differs from the Todd-Coxeter table")
        rs = out["reidemeister_schreier"].presentation
        problems["reidemeister_schreier"] += checks.check_schreier_counts(
            factorial(n), rank, len(self.p.relators), rs.alphabet.rank, len(rs.relators)
        )


class Sphere5H1(PureSphere):
    """Todd-Coxeter, regular table, Reidemeister-Schreier, then Smith normal
    form of the 361 x 960 relation matrix."""

    n = 5
    ops = ("todd_coxeter", "regular_coset_table", "reidemeister_schreier", "abelianization")

    def run_pass(self):
        out = {}
        out["todd_coxeter"] = table = fpgroup.todd_coxeter(self.p, self.gens)
        out["regular_coset_table"] = fpgroup.regular_coset_table(self.p, self.images)
        out["reidemeister_schreier"] = rs = fpgroup.reidemeister_schreier(self.p, table)
        out["abelianization"] = fpgroup.abelianization(rs.presentation)
        return out

    def check(self, out):
        problems = {op: [] for op in self.ops}
        self.check_common(out, problems)
        problems["reidemeister_schreier"] += checks.check_words_in_kernel(
            [w.letters for w in out["reidemeister_schreier"].generator_words],
            checks.transposition_images(self.n),
            self.n,
        )
        ab = out["abelianization"]
        expected = checks.sphere_h1_rank(self.n)
        if ab.free_rank != expected or ab.moduli:
            problems["abelianization"].append(f"H1 = {ab.describe()}, expected Z^{expected}")
        return problems


class Sphere7Pure(PureSphere):
    """The index-5040 pure subgroup as a presentation and as a folded graph,
    intersected with a seeded random action of F6 on 12 points."""

    n = 7
    ops = (
        "todd_coxeter",
        "regular_coset_table",
        "reidemeister_schreier",
        "subgroup_graph",
        "from_coset_action",
        "intersect",
    )
    POINTS = 12

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.random_action = random_action(seed, self.n - 1, self.POINTS)
        self.other = stallings.from_coset_action(self.p.alphabet, self.random_action)
        self.orbit = None

    def run_pass(self):
        out = {}
        out["todd_coxeter"] = table = fpgroup.todd_coxeter(self.p, self.gens)
        out["regular_coset_table"] = fpgroup.regular_coset_table(self.p, self.images)
        out["reidemeister_schreier"] = rs = fpgroup.reidemeister_schreier(self.p, table)
        out["subgroup_graph"] = folded = stallings.subgroup_graph(self.p.alphabet, rs.generator_words)
        out["from_coset_action"] = stallings.from_coset_action(self.p.alphabet, table.action_dict())
        out["intersect"] = folded.intersect(self.other)
        return out

    def check(self, out):
        problems = {op: [] for op in self.ops}
        self.check_common(out, problems)
        index, rank = factorial(self.n), self.n - 1
        folded, action_graph = out["subgroup_graph"], out["from_coset_action"]
        problems["subgroup_graph"] += checks.check_graph(folded.table, index, rank)
        if folded.table != action_graph.table:
            problems["subgroup_graph"].append("the folded graph differs from the coset action's graph")
        problems["from_coset_action"] += checks.check_graph(action_graph.table, index, rank)
        if list(action_graph.table) != list(out["todd_coxeter"].rows):
            problems["from_coset_action"].append("the graph is not the coset table")
        if self.orbit is None:
            self.orbit = checks.product_orbit(
                checks.action_from_rows(out["todd_coxeter"].rows, rank),
                checks.signed_perms(self.random_action),
                rank,
            )
        problems["intersect"] += checks.check_graph(out["intersect"].table, self.orbit, rank)
        return problems


def random_action(seed, rank, points):
    """A transitive action of the free group of the given rank: letter 1 is
    a random cycle through all points, letter 2 swaps two points adjacent on
    that cycle (together they generate the symmetric group), and the other
    letters are uniform random permutations."""
    rng = random.Random(f"sphere7-pure:{seed}")
    cycle = list(range(points))
    rng.shuffle(cycle)
    first = [0] * points
    for i, x in enumerate(cycle):
        first[x] = cycle[(i + 1) % points]
    second = list(range(points))
    second[cycle[0]], second[cycle[1]] = cycle[1], cycle[0]
    action = {1: first, 2: second}
    for letter in range(3, rank + 1):
        perm = list(range(points))
        rng.shuffle(perm)
        action[letter] = perm
    return action


# ---------------------------------------------------------------------------


class DefectBall(Workload):
    """The defect of the counting quasimorphism for abAB over the radius-6
    ball, and the independence rank of the ten Brooks patterns."""

    ops = ("defect_ball", "independence_rank")
    PATTERN = (1, 2, -1, -2)  # abAB
    RADIUS = 6
    FAMILY = 10

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        f2 = words.Alphabet(2)
        self.qm = quasi.Quasimorphism([(1, f2.word(self.PATTERN))])
        self.family, self.tests = constructions.brooks_family(self.FAMILY)
        self.smaller = None

    def run_pass(self):
        return {
            "defect_ball": quasi.defect_ball(self.qm, self.RADIUS),
            "independence_rank": quasi.independence_rank(self.family, self.tests),
        }

    def check(self, out):
        problems = {op: [] for op in self.ops}
        if self.smaller is None:
            self.smaller = quasi.defect_ball(self.qm, self.RADIUS - 1)
        value = out["defect_ball"]
        problems["defect_ball"] += checks.check_defect(value, self.PATTERN, 2, self.RADIUS)
        if value < self.smaller:
            problems["defect_ball"].append(f"defect {value} below the radius-{self.RADIUS - 1} defect {self.smaller}")
        if out["independence_rank"] != self.FAMILY:
            problems["independence_rank"].append(f"rank {out['independence_rank']}, expected {self.FAMILY}")
        return problems


WORKLOADS = {
    "verify": Verify,
    "sphere5-h1": Sphere5H1,
    "sphere7-pure": Sphere7Pure,
    "defect-ball": DefectBall,
}
