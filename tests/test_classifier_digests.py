"""The published JSON of ``cuspidal classify --explain`` and ``cuspidal generate``.

``classify --explain`` runs on every instance of ``bench/fiber_corpus.json``
and on seeded random and sparse forms; the sparse ones reach every case tag,
``out_of_scope`` with cusp multiplicity 0 and 1 among them, and the errors
of forms that no case takes.  ``generate`` runs on every (case, n = 3..10,
level = 1..7) at seed 0, an instance or its refusal.  Every verdict but
out_of_scope must lie in the band its row of ``classifier.CASES`` gives.
The test hashes each output record, the explain lines apart, and compares
the digests with ``classifier_digests.json`` beside this file.  A change
that alters any published value fails here and names the inputs; if the
change is meant, regenerate the digests and say why in the ledger:

    PYTHONPATH=src python tests/test_classifier_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from cuspidal.binform import BinaryForm, random_form
from cuspidal.classifier import CASE_TAGS, CASES
from cuspidal.cli import main

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "classifier_digests.json"
sys.path.insert(0, str(HERE))

from test_corpus import corpus_forms  # noqa: E402


def _digest(blob) -> str:
    return hashlib.sha256(json.dumps(blob).encode()).hexdigest()[:16]


def _cli(argv) -> dict:
    """The one record the command prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    (line,) = out.getvalue().splitlines()
    return json.loads(line)


def seeded_forms():
    """(key, form): 300 random forms and 600 sparse ones, degree 4..11."""
    rng = random.Random("classifier-digests:random")
    for i in range(300):
        yield f"random/{i}", random_form(rng.randint(4, 11), rng, bound=20)
    rng = random.Random("classifier-digests:sparse")
    for i in range(600):
        d = rng.randint(4, 11)
        coeffs = [0]
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) if rng.random() < 0.3 else 0 for _ in range(d + 1)]
        yield f"sparse/{i}", BinaryForm(d, tuple(Fraction(c) for c in coeffs))


def classify_records():
    """(key, record of ``classify --explain``) for the corpus and seeded forms."""
    forms = [(f"corpus/{key}", f) for key, f in corpus_forms()]
    for key, f in forms + list(seeded_forms()):
        text = json.dumps({"degree": f.degree, "coeffs": [str(c) for c in f.coeffs]})
        yield key, _cli(["classify", "--explain", text])


def generate_records():
    """(key, record of ``generate``) for every case, n = 3..10, level = 1..7."""
    for tag in CASE_TAGS:
        for n in range(3, 11):
            for level in range(1, 8):
                argv = ["generate", "--case", tag, "--n", str(n), "--level", str(level)]
                yield f"generate/{tag}/{n}/{level}", _cli([*argv, "--seed", "0"])


def classifier_digests(records) -> dict[str, dict[str, str]]:
    digests = {}
    for key, rec in records:
        explain = rec.pop("explain", None)
        digests[key] = {"record": _digest(rec)}
        if explain is not None:
            digests[key]["explain"] = _digest(explain)
    return digests


def _assert_in_bands(verdicts):
    """Each verdict other than out_of_scope lies in the band of its case."""
    for key, v in verdicts:
        if v["case"] != "out_of_scope":
            i = v["inputs"]
            assert CASES[v["case"]].band(i["n"], i.get("rho", i.get("w"))), key


def _compare(got, want):
    assert got.keys() == want.keys()
    changed = [f"{key} {field}" for key in want for field in want[key]
               if got[key].get(field) != want[key][field]]
    assert not changed, f"{len(changed)} changed, first: {changed[:10]}"


def test_classify_json_unchanged():
    with open(DIGESTS) as fh:
        want = json.load(fh)
    records = list(classify_records())
    assert len(records) == 672 + 900
    cases = {(r.get("case"), r.get("inputs", {}).get("mult_A")) for _, r in records}
    assert {c for c, _ in cases} >= set(CASE_TAGS) - {"e3_1_info"}
    assert {("out_of_scope", 0), ("out_of_scope", 1)} <= cases
    assert any("error" in r for _, r in records)
    _assert_in_bands((key, r) for key, r in records if "case" in r)
    _compare(classifier_digests(records),
             {k: v for k, v in want.items() if not k.startswith("generate/")})


def test_generate_json_unchanged():
    with open(DIGESTS) as fh:
        want = json.load(fh)
    records = list(generate_records())
    _assert_in_bands((key, r["truth"]) for key, r in records if "truth" in r)
    _compare(classifier_digests(records),
             {k: v for k, v in want.items() if k.startswith("generate/")})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_classifier_digests.py --write")
    digests = classifier_digests([*classify_records(), *generate_records()])
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
