#!/usr/bin/env python3
"""Run the full experiment protocol for both nuclei into one output tree.

Steps, per nucleus (120Sn and 208Pb):
  1. classical baseline spectrum at kappa = 0.4 on the 0-10 window;
  2. classical shell-window study over the standard window table;
  3. sampled quantum pipeline (median spectrum over the configured runs);
  4. error study: MAD of the peak energy versus run count;
  5. comparison of the quantum median against the bundled experimental curve.

Every artifact lands under --out (default ./reproduction) in one directory per
step, so a rerun with the same seed reproduces the tree byte for byte.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gdrq.cli import main as gdrq_main  # noqa: E402

NUCLEI = ("sn120", "pb208")
CLASSICAL_KAPPA = ("--kappa", "0.4")

# (label, subcommand, output directory, flags, sampled); a sampled step also
# takes the master seed and any --runs override
STEPS = (
    ("classical", "classical", "classical", (*CLASSICAL_KAPPA, "--basis", "0-10"), False),
    ("basis study", "basis-study", "basis_study", CLASSICAL_KAPPA, False),
    ("quantum", "quantum", "quantum", (), True),
    ("error study", "error-study", "error_study", (), True),
    ("comparison", "compare", "comparison", ("--mode", "quantum"), True),
)


def run(step: str, argv: list[str]) -> None:
    print(f"== {step}: gdrq {' '.join(argv)}")
    code = gdrq_main(argv)
    if code != 0:
        raise SystemExit(f"step {step!r} failed with exit code {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260823, help="master seed")
    parser.add_argument(
        "--configs",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "configs"),
        help="directory holding sn120.cfg and pb208.cfg",
    )
    parser.add_argument("--out", default="reproduction", help="output tree root")
    parser.add_argument(
        "--runs", type=int, default=None, help="override runs per study (smoke tests)"
    )
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    seed = str(args.seed)
    runs = [] if args.runs is None else ["--runs", str(args.runs)]
    for nucleus in NUCLEI:
        config = str(pathlib.Path(args.configs) / f"{nucleus}.cfg")
        for label, subcommand, directory, flags, sampled in STEPS:
            sampling = ["--seed", seed, *runs] if sampled else []
            target = str(out / nucleus / directory)
            run(f"{nucleus} {label}", [subcommand, "--config", config, *flags, *sampling, "--out", target])
    print(f"done: artifacts under {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
