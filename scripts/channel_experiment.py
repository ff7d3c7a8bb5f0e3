"""Sweep the corruption probability for one code and print exact rates.

The simulation computes each codeword's image under the relation on
first draw and checks neither code-ness nor independence, so the
script prints both verdicts (and error correction) before the sweep.

Example:
    python3 scripts/channel_experiment.py --code "aabbb|bbbbaa" --rel Delta:2
    python3 scripts/channel_experiment.py --code "aaaa|aaab|abb|bab" --rel delta:1
"""

from __future__ import annotations

import argparse

from codekit.analysis import sardinas_patterson
from codekit.automata import compile_expression
from codekit.channel import ExperimentConfig, run_experiment
from codekit.errors import ParseError
from codekit.independence import check_constraints
from codekit.transducers import EditRelationSpec
from codekit.words import parse_alphabet


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--code", default="aabbb|bbbbaa", help="code expression")
    parser.add_argument("--alphabet", default="ab")
    parser.add_argument("--rel", default="Delta:2", help="edit relation kind:k")
    parser.add_argument("--len", type=int, default=50, dest="message_length")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument(
        "--probs",
        default="0,0.25,0.5,0.75,1",
        help="comma-separated corruption probabilities",
    )
    args = parser.parse_args()

    try:
        alphabet = parse_alphabet(args.alphabet)
        code = compile_expression(args.code, alphabet)
        spec = EditRelationSpec.parse(args.rel)
        configs = [
            ExperimentConfig(
                code=code,
                spec=spec,
                p=float(text),
                message_length=args.message_length,
                trials=args.trials,
                seed=args.seed,
            )
            for text in args.probs.split(",")
        ]
    except (ParseError, ValueError) as e:  # a UsageError is a ValueError
        parser.exit(3, f"{parser.prog}: error: {e}\n")

    print(f"code: {args.code}   relation: {spec.render()}")
    print(f"is a code: {sardinas_patterson(code).is_code}")
    status = check_constraints(code, spec)
    print(f"independent: {status.independent.status}")
    print(f"error-correcting: {status.error_correcting.status}")
    print()

    header = (
        f"{'p':>6} {'blocks':>7} {'corrupt':>8} {'exact':>6} {'corrected':>10} "
        f"{'ambiguous':>10} {'detected':>9} {'corr-rate':>10} {'det-rate':>9}"
    )
    print(header)
    for config in configs:
        report = run_experiment(config)
        print(
            f"{config.p:>6.2f} {report.blocks:>7} {report.corrupted:>8} "
            f"{report.exact:>6} {report.corrected:>10} {report.ambiguous:>10} "
            f"{report.detected:>9} {str(report.correction_rate):>10} "
            f"{str(report.detection_rate):>9}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
