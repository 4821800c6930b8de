"""Every certified family up to the cap, built, re-read and verified against the residue spectrum.

For n = 7 .. ``counterexample._MAX_N`` in the ``plain`` variant, and at odd
n in the ``center`` variant too, this builds ``construct(n, variant)``,
writes its bundle, reads it back with ``read_bundle`` and verifies the lines
it read.  Both stab spectra, the certificate's and the re-read one's, must
equal ``polygon.polygon_spectrum_enumerated``, the residue count that shares
no code with the exact classing, and every certificate must pass except the
center variant's at n = 7, whose spectrum {3, 5, 7} holds n - 2.

It takes minutes, so pytest does not collect it.  From the repository root:

    PYTHONPATH=src python tests/sweep_certificates.py [FIRST [LAST]]

It prints one line per family and a summary, and exits 1 on any mismatch.
"""

import sys
import tempfile
import time
from pathlib import Path

from dircover.counterexample import _MAX_N, construct, read_bundle, verify, write_bundle
from dircover.polygon import polygon_spectrum_enumerated


def sweep_one(n: int, variant: str, path: Path) -> str:
    """One family's report line; it starts with MISMATCH when the family fails the sweep."""
    t0 = time.perf_counter()
    try:
        bundle = construct(n, variant)
    except ArithmeticError as exc:  # construct's own residue check
        return f"MISMATCH n={n} {variant}: {exc}"
    t1 = time.perf_counter()
    write_bundle(bundle, path)
    reread = verify(read_bundle(path).lines)
    t2 = time.perf_counter()
    residue = polygon_spectrum_enumerated(bundle.config)
    cert = bundle.certificate
    expected_pass = (n, variant) != (7, "center")
    ok = cert.stab_counts == reread.stab_counts == residue and cert.passed == reread.passed == expected_pass
    return (
        f"{'ok' if ok else 'MISMATCH'} n={n} {variant} field_order={bundle.field_order}"
        f" counts={sorted(cert.stab_counts)} residue={sorted(residue)} verdict={cert.verdict}/{reread.verdict}"
        f" construct={t1 - t0:.3f}s reread+verify={t2 - t1:.3f}s"
    )


def main(argv: list[str]) -> int:
    first, last = (int(argv[0]) if argv else 7), (int(argv[1]) if len(argv) > 1 else _MAX_N)
    families = [(n, v) for n in range(first, last + 1) for v in ("plain", "center") if v == "plain" or n % 2]
    start, mismatches = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, variant in families:
            line = sweep_one(n, variant, Path(tmp) / "bundle.json")
            mismatches += line.startswith("MISMATCH")
            print(line, flush=True)
    print(f"{len(families)} families, {mismatches} mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
