"""The published JSON of every instance of the pinned fiber corpus.

For each instance of ``bench/fiber_corpus.json`` (read, never written) the
test hashes ``rank(f).to_json()``, ``x_rank(project(f)).to_json()`` and the
report of ``classifier.crosscheck(f)`` and compares the digests with
``corpus_digests.json`` beside this file.  A
change that alters any published value fails here and names the instances;
if the change is meant, regenerate the digests and say why in the ledger:

    PYTHONPATH=src python tests/test_corpus.py --write
"""

import hashlib
import json
import runpy
import sys
from fractions import Fraction
from pathlib import Path

from cuspidal import projection
from cuspidal.apolarity import rank
from cuspidal.binform import BinaryForm, squarefree_decompose
from cuspidal.classifier import crosscheck
from cuspidal.projection import lift, project, x_rank

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "bench" / "fiber_corpus.json"
DIGESTS = HERE / "corpus_digests.json"


def _digest(blob) -> str:
    return hashlib.sha256(json.dumps(blob).encode()).hexdigest()[:16]


def corpus_forms():
    """(key case/n/level/seed, form) for each instance of the corpus."""
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    for cell in corpus["cells"]:
        for inst in cell["instances"]:
            coeffs = tuple(Fraction(c) for c in inst["coeffs"])
            key = f"{cell['case']}/{cell['n']}/{cell['level']}/{inst['seed']}"
            yield key, BinaryForm(len(coeffs) - 1, coeffs)


def corpus_digests() -> dict[str, dict[str, str]]:
    """Digests of the rank and x_rank JSON and of the crosscheck report per
    instance."""
    return {
        key: {
            "rank": _digest(rank(f).to_json()),
            "x_rank": _digest(x_rank(project(f)).to_json()),
            "crosscheck": _digest(crosscheck(f)),
        }
        for key, f in corpus_forms()
    }


def test_corpus_json_unchanged():
    with open(DIGESTS) as fh:
        want = json.load(fh)
    got = corpus_digests()
    assert len(got) == 672 and got.keys() == want.keys()
    changed = [f"{key} {field}" for key in want for field in want[key]
               if got[key][field] != want[key][field]]
    assert not changed, f"{len(changed)} changed, first: {changed[:10]}"


def test_make_corpus_reproduces_the_pinned_corpus(capsys):
    """``bench/make_corpus.py`` prints the committed corpus byte for byte,
    so the generator still builds every instance the benchmark measures.
    run_path compiles the script without writing bytecode beside it."""
    script = runpy.run_path(str(HERE.parent / "bench" / "make_corpus.py"), run_name="make_corpus")
    assert script["main"]() == 0
    assert capsys.readouterr().out.encode() == CORPUS.read_bytes()


def test_square_free_witness_scheme_is_its_decomposition():
    """A square-free witness's scheme, built without Yun, equals the
    square-free decomposition of the witness, on the certificates of every
    corpus form and of its lifts at lambda = 1 and -1."""
    count = 0
    for key, f in corpus_forms():
        P = project(f)
        for cert in (rank(f), rank(lift(P, 1)), rank(lift(P, -1))):
            if cert.witness_kind == "squarefree":
                assert cert.witness_scheme == squarefree_decompose(cert.witness_form), key
                count += 1
    assert count > 600


def test_cusp_instances_take_the_cusp_branch(monkeypatch):
    """B'' = 0, the cusp point, exactly on the 72 e3_3_cusp instances, and
    x_rank gives them value 1 without building a pencil."""
    def refuse(*args):
        raise AssertionError("a pencil was built for the cusp")

    monkeypatch.setattr(projection, "_pencil", refuse)
    cusps = 0
    for key, f in corpus_forms():
        P = project(f)
        assert (not any(P.coords[1:])) == key.startswith("e3_3_cusp/"), key
        if key.startswith("e3_3_cusp/"):
            assert x_rank(P).value == 1, key
            cusps += 1
    assert cusps == 72


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    with open(DIGESTS, "w") as fh:
        json.dump(corpus_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
