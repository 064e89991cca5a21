"""Job pools of the three workloads, their expected outputs and checks.

A workload's parameters live in workloads.json next to this file.  Its
WORKLOADS entry turns them and a seed into a Pool of Jobs: the argv and stdin
handed to parikhseq.cli.main, the expectation the output is checked against,
and the letters the job consumes and folds.  Expectations come from routes
independent of the code under test: seq_matrix_direct on blocks multiplied
by the homomorphism instead of the fold, count_subword for Parikh matrices,
truth fixed at generation time for gsh equiv, and bounded evaluation for gsh
linearize.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

from parikhseq import fuzz, gsh
from parikhseq.counting import count_subword
from parikhseq.minors import special_minor
from parikhseq.seqmat import seq_matrix_direct
from parikhseq.words import Alphabet, GapPattern

PARAMS = json.loads((Path(__file__).with_name("workloads.json")).read_text())


@dataclass
class Job:
    kind: str
    argv: list[str]
    stdin: str | None = None
    expect: object = None
    letters: int = 0  # letters of the input word
    folded: int = 0  # letters this job pushes through SeqFold
    direct: int = 0  # seq_matrix_direct calls this job makes
    label: str = ""  # pattern or suite, for reports


@dataclass
class Pool:
    jobs: list[Job]
    warmup: list[Job]
    files: dict[str, str] = field(default_factory=dict)  # path -> word


# --------------------------------------------------------------------------
# expectations


def _rows(matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(row) for row in matrix.rows)


def _block_word(rng: random.Random, alphabet: str, spec: dict, params: dict):
    """Random blocks for one pattern and their direct matrices; returns a
    word maker that concatenates blocks in a seeded order."""
    pattern = GapPattern.parse(spec["pattern"])
    m = params["block_letters"]
    blocks = [
        "".join(rng.choices(alphabet, k=m)) for _ in range(params["blocks_per_pattern"])
    ]
    mats = [seq_matrix_direct(pattern, b).matrix for b in blocks]

    def make(length: int) -> tuple[str, tuple[tuple[int, ...], ...]]:
        if length % m:
            raise ValueError(f"length {length} is not a multiple of block_letters {m}")
        order = [rng.randrange(len(blocks)) for _ in range(length // m)]
        word = "".join(blocks[i] for i in order)
        # homomorphism: the matrix of a concatenation is the product
        return word, _rows(reduce(lambda a, b: a * b, (mats[i] for i in order)))

    return make


def parikh_rows(inducing: str, word: str) -> tuple[tuple[int, ...], ...]:
    """Parikh matrix entry by entry: (i, j+1) counts inducing[i..j] as a
    scattered subword."""
    n = len(inducing) + 1
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n):
        for j in range(i, n):
            rows[i - 1][j] = count_subword(word, inducing[i - 1 : j])
    return tuple(tuple(r) for r in rows)


def _check_spec(spec: dict) -> None:
    pattern = GapPattern.parse(spec["pattern"])
    d, k = pattern.flat_length - 1, len(set(pattern.flat))
    if (d, k) != (spec.get("d", d), spec["k"]):
        raise ValueError(f"{spec['pattern']}: d={d}, k={k} disagree with {spec}")


# --------------------------------------------------------------------------
# pools


def build_stream(seed: int, workdir: Path) -> Pool:
    params = PARAMS["workloads"]["stream"]
    rng = random.Random(f"stream:{seed}")
    jobs: list[Job] = []
    for spec in params["sequence_jobs"]:
        _check_spec(spec)
        alphabet = params["alphabets"][str(spec["k"])]
        make = _block_word(rng, alphabet, spec, params)
        for length in spec["lengths"]:
            word, rows = make(length)
            jobs.append(
                Job(
                    "sequence",
                    ["matrix", "sequence", "--pattern", spec["pattern"], "--format", "json", "-"],
                    word + "\n",
                    rows,
                    letters=length,
                    folded=length,
                    label=spec["pattern"],
                )
            )
    for spec in params["parikh_jobs"]:
        word = "".join(rng.choices(spec["alphabet"], k=spec["length"]))
        inducing = spec.get("inducing", spec["alphabet"])
        argv = ["matrix", spec["kind"], "--alphabet", spec["alphabet"]]
        if spec["kind"] == "extended":
            argv += ["--inducing", inducing]
        jobs.append(
            Job(
                "parikh",
                argv + ["--format", "json", "-"],
                word + "\n",
                parikh_rows(inducing, word),
                letters=spec["length"],
                label=f"{spec['kind']} {inducing}",
            )
        )
    rng.shuffle(jobs)
    warmup = [
        Job(
            "sequence",
            ["matrix", "sequence", "--pattern", "ab.ba", "--format", "json", "-"],
            "abbab\n",
            _rows(seq_matrix_direct(GapPattern.parse("ab.ba"), "abbab").matrix),
            letters=5,
        ),
        Job(
            "parikh",
            ["matrix", "classic", "--alphabet", "abc", "--format", "json", "-"],
            "cabba\n",
            parikh_rows("abc", "cabba"),
            letters=5,
        ),
    ]
    return Pool(jobs, warmup)


def build_checked(seed: int, workdir: Path) -> Pool:
    params = PARAMS["workloads"]["checked"]
    rng = random.Random(f"checked:{seed}")
    files: dict[str, str] = {}
    jobs: list[Job] = []

    def word_job(kind, argv, i, word, expect, **extra) -> Job:
        """Words alternate between the positional argument and --file."""
        if i % 2 == 0:
            tail = [word]
        else:
            path = str(workdir / f"w{len(jobs)}.txt")
            files[path] = word
            tail = ["--file", path]
        return Job(kind, argv + ["--format", "json"] + tail, expect=expect, letters=len(word), **extra)

    for spec in params["sequence_jobs"]:
        _check_spec(spec)
        alphabet = params["alphabets"][str(spec["k"])]
        make = _block_word(rng, alphabet, spec, params)
        for i, length in enumerate(spec["lengths"]):
            word, rows = make(length)
            jobs.append(
                word_job(
                    "sequence",
                    ["matrix", "sequence", "--pattern", spec["pattern"]],
                    i, word, rows,
                    folded=length, direct=1, label=spec["pattern"],
                )
            )
    for spec in params["classic_jobs"]:
        for i, length in enumerate(spec["lengths"]):
            word = "".join(rng.choices(spec["alphabet"], k=length))
            jobs.append(
                word_job(
                    "parikh",
                    ["matrix", "classic", "--alphabet", spec["alphabet"]],
                    i, word, parikh_rows(spec["alphabet"], word),
                    label=f"classic {spec['alphabet']}",
                )
            )
    for kind in ("minor", "witness"):
        for spec in params[f"{kind}_jobs"]:
            _check_spec(spec)
            pattern = GapPattern.parse(spec["pattern"])
            alphabet = params["alphabets"][str(spec["k"])]
            for i, length in enumerate(spec["lengths"]):
                word = "".join(rng.choices(alphabet, k=length))
                jobs.append(
                    word_job(
                        kind,
                        [kind, "--pattern", spec["pattern"]],
                        i, word, _rows(special_minor(pattern, word)),
                        folded=length if kind == "minor" else 0,
                        label=spec["pattern"],
                    )
                )
    rng.shuffle(jobs)
    warmup = [
        Job("sequence", ["matrix", "sequence", "--pattern", "ab.ba", "--format", "json", "abbab"],
            None, _rows(seq_matrix_direct(GapPattern.parse("ab.ba"), "abbab").matrix), letters=5),
        Job("parikh", ["matrix", "classic", "--alphabet", "ab", "--format", "json", "abba"],
            None, parikh_rows("ab", "abba"), letters=4),
        Job("minor", ["minor", "--pattern", "a.b", "--format", "json", "abab"],
            None, _rows(special_minor(GapPattern.parse("a.b"), "abab"))),
        Job("witness", ["witness", "--pattern", "a.b", "--format", "json", "abab"],
            None, _rows(special_minor(GapPattern.parse("a.b"), "abab"))),
    ]
    return Pool(jobs, warmup, files)


def _gsh_jobs(rng: random.Random, params: dict, count: int, exclude: set[str]) -> list[Job]:
    """Alternating linearize and equiv jobs over distinct expressions not in
    `exclude`.  E1 follows the structures in turn, with seeded letters; half
    of each structure's equiv jobs compare E1 with its own linear form, the
    other half with that form plus one monomial."""
    alphabet = params["gsh_alphabet"]
    structures = params["gsh_structures"]
    exprs: list[str] = []
    while len(exprs) < count:
        structure = structures[(len(exprs) // 2) % len(structures)]
        e1 = "*".join(
            ".".join("".join(rng.choices(alphabet, k=n)) for n in monomial)
            for monomial in structure
        )
        if e1 not in exclude and e1 not in exprs:
            exprs.append(e1)
    jobs = []
    for i, e1 in enumerate(exprs):
        if i % 2 == 0:
            jobs.append(Job("linearize", ["gsh", "linearize", e1, "--format", "json"], expect=e1, label=e1))
            continue
        linear = gsh.linearize(gsh.parse_expr(e1)).render()
        # with an even number of structures this gives each structure both verdicts
        equivalent = (i // 2) % 4 in (0, 3)
        e2 = linear
        if not equivalent:
            lo, hi = params["perturbation_letters"]
            e2 += " + " + "".join(rng.choices(alphabet, k=rng.randint(lo, hi)))
        jobs.append(
            Job("equiv", ["gsh", "equiv", e1, e2, "--alphabet", alphabet, "--format", "json"],
                expect=equivalent, label=e1)
        )
    return jobs


def gsh_suite_cases(maxlen: int) -> int:
    """Cases the gsh suite reports: every word up to min(maxlen, cap) over
    each expression's alphabet."""
    return sum(
        sum(len(alpha) ** n for n in range(min(maxlen, cap) + 1))
        for _, alpha, cap in fuzz.GSH_SUITE
    )


def build_small(seed: int, workdir: Path) -> Pool:
    params = PARAMS["workloads"]["small"]
    rng = random.Random(f"small:{seed}")
    jobs = []
    for spec in params["verify_jobs"]:
        argv = ["verify", spec["suite"], "--seed", str(rng.randrange(10**6)),
                "--iters", str(spec["iters"])]
        cases = spec["iters"]
        if "maxlen" in spec:
            argv += ["--maxlen", str(spec["maxlen"])]
            cases = gsh_suite_cases(spec["maxlen"])
        jobs.append(Job("verify", argv + ["--format", "json"], expect=(spec["suite"], cases), label=spec["suite"]))
    jobs += _gsh_jobs(rng, params, params["linearize_jobs"] + params["equiv_jobs"], set())
    rng.shuffle(jobs)
    # warm-up expressions come from their own stream and never occur in the pool
    timed = {job.label for job in jobs}
    warm_rng = random.Random(f"small-warmup:{seed}")
    warmup = _gsh_jobs(warm_rng, params, 4, timed)
    warmup.append(Job("verify", ["verify", "entries", "--seed", "1", "--iters", "2", "--format", "json"],
                      expect=("entries", 2), label="entries"))
    return Pool(jobs, warmup)


WORKLOADS = {"stream": build_stream, "checked": build_checked, "small": build_small}


def reset_caches() -> None:
    """Clear the gsh lru caches so each pass starts cold."""
    for fn in (gsh.red, gsh.linearize_product):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


# --------------------------------------------------------------------------
# checks: True when the output is right


def _out_rows(data: dict) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in data["rows"])


def _check_matrix(job: Job, data: dict) -> bool:
    return _out_rows(data) == job.expect and int(data.get("length", job.letters)) == job.letters


def _check_minor(job: Job, data: dict) -> bool:
    return _out_rows(data) == job.expect


def _check_witness(job: Job, data: dict) -> bool:
    if data["verified"] is not True or _out_rows(data["minor"]) != job.expect:
        return False
    # independent of the program's witness check: the witness's Parikh
    # matrix over symbols 1..x, entry by entry
    x = len(job.expect) - 1
    tokens = data["witness"].split(",") if x > 9 else data["witness"].split("a")[1:]
    word = "".join(chr(0x100 + int(t.lstrip("a"))) for t in tokens)
    inducing = "".join(chr(0x100 + i) for i in range(1, x + 1))
    return parikh_rows(inducing, word) == job.expect


def _check_verify(job: Job, data: dict) -> bool:
    suite, cases = job.expect
    [report] = data["suites"]
    # a vacuous pass (0 cases) or a short run fails here
    return report["name"] == suite and report["passed"] is True and report["cases"] == cases


def _check_linearize(job: Job, data: dict) -> bool:
    expr = gsh.parse_expr(job.expect)
    linear = gsh.LinearForm.from_json_list(data["terms"])
    alphabet = Alphabet.parse(PARAMS["workloads"]["small"]["gsh_alphabet"])
    return all(
        gsh.evaluate(expr, w) == linear.evaluate(w) for w in gsh.words_up_to(alphabet, 4)
    )


def _check_equiv(job: Job, data: dict) -> bool:
    truth = job.expect
    return (
        data["canonical"] is truth
        and data["bounded"] is truth
        and (data["counterexample"] is None) is truth
    )


CHECKS = {
    "sequence": _check_matrix,
    "parikh": _check_matrix,
    "minor": _check_minor,
    "witness": _check_witness,
    "verify": _check_verify,
    "linearize": _check_linearize,
    "equiv": _check_equiv,
}


def check(job: Job, rc: int | None, out: str) -> bool:
    """Exit code 0 and output matching the expectation; empty or malformed
    output is a failure."""
    if rc != 0 or not out.strip():
        return False
    try:
        return CHECKS[job.kind](job, json.loads(out))
    except (ValueError, KeyError, TypeError):
        return False


def corrupt(jobs: list[Job]) -> int:
    """Self-check: falsify the expectation of the first job of each kind, so
    that every check must report a failure.  Returns the jobs corrupted."""
    seen = set()
    for job in jobs:
        if job.kind in seen:
            continue
        seen.add(job.kind)
        if job.kind in ("sequence", "parikh", "minor", "witness"):
            rows = [list(r) for r in job.expect]
            rows[0][-1] += 1
            job.expect = tuple(tuple(r) for r in rows)
        elif job.kind == "verify":
            job.expect = (job.expect[0], job.expect[1] + 1)
        elif job.kind == "linearize":
            job.expect = job.expect + " + a"
        elif job.kind == "equiv":
            job.expect = not job.expect
    return len(seen)
