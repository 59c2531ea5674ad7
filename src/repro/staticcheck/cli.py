"""Command line for the project linter.

::

    python -m repro.staticcheck [paths ...] [--format text|json|sarif]
                                [--select ID[,ID]] [--ignore ID[,ID]]
                                [--cache [PATH]] [--jobs N]
                                [--reference PATH ...] [--statistics]
                                [--baseline write|check] [--baseline-file PATH]
                                [--list-rules]

With no paths the engine checks ``src/repro`` when run from the repo root
(falling back to the installed package directory) and harvests import
usage from ``tests``, ``benchmarks`` and ``examples`` for the
``dead-export`` rule.  ``--cache`` (optionally with a path, default
``.staticcheck-cache.json``) turns on the incremental engine; a warm run
re-parses only files whose content changed.
``--statistics`` prints cache and per-rule counters to stderr, keeping
stdout byte-stable.  Exit status: 0 clean, 1 findings, 2 usage or I/O
error — so CI can gate on it directly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.staticcheck.baseline import apply_baseline, load_baseline, write_baseline
from repro.staticcheck.engine import UsageError, check_paths
from repro.staticcheck.registry import all_project_rules, all_rules, resolve_all_rules
from repro.staticcheck.reporting import render, render_statistics

__all__ = ["main", "build_parser"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

DEFAULT_CACHE = ".staticcheck-cache.json"
DEFAULT_BASELINE = ".staticcheck-baseline.json"

#: Directories harvested for import usage when linting the default paths.
DEFAULT_REFERENCE_DIRS = ("tests", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description="AST-based project linter with MCBound-specific rules.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src/repro, else the "
        "installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=DEFAULT_CACHE,
        default=None,
        metavar="PATH",
        help="enable the incremental cache, optionally naming its file "
        f"(default when enabled: {DEFAULT_CACHE})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parse cold files with N parallel worker processes",
    )
    parser.add_argument(
        "--reference",
        action="append",
        default=None,
        metavar="PATH",
        help="extra files/directories whose imports count as usage for the "
        "dead-export rule but which are not linted (default when no "
        "paths are given: tests, benchmarks, examples)",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print run statistics (cache hits/misses, findings per rule, "
        "wall time) to stderr",
    )
    parser.add_argument(
        "--baseline",
        choices=("write", "check"),
        default=None,
        help="'write' records current findings as the accepted baseline; "
        "'check' fails only on findings not in the baseline (the "
        "ratchet: tracked findings may only decrease)",
    )
    parser.add_argument(
        "--baseline-file",
        default=DEFAULT_BASELINE,
        metavar="PATH",
        help=f"baseline file location (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule id and description, then exit",
    )
    return parser


def _split(csv: str | None) -> list[str] | None:
    if csv is None:
        return None
    return [part.strip() for part in csv.split(",") if part.strip()]


def _default_paths() -> list[str]:
    candidate = Path("src/repro")
    if candidate.is_dir():
        return [str(candidate)]
    # installed / imported from elsewhere: lint the package itself
    return [str(Path(__file__).resolve().parents[1])]


def _default_references() -> list[str]:
    return [d for d in DEFAULT_REFERENCE_DIRS if Path(d).is_dir()]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, cls in sorted(all_rules().items()):
            print(f"{rule_id:22s} {cls.description}")
        for rule_id, cls in sorted(all_project_rules().items()):
            print(f"{rule_id:22s} [project] {cls.description}")
        return EXIT_CLEAN

    try:
        rules, project_rules = resolve_all_rules(
            select=_split(args.select), ignore=_split(args.ignore)
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR

    references = args.reference
    if references is None:
        references = _default_references() if not args.paths else []

    try:
        result = check_paths(
            args.paths or _default_paths(),
            rules=rules,
            project_rules=project_rules,
            reference_paths=references,
            cache_path=args.cache,
            jobs=max(1, args.jobs),
        )
    except (UsageError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.baseline == "write":
        count = write_baseline(result, args.baseline_file)
        print(f"baseline: wrote {count} finding(s) to {args.baseline_file}")
        return EXIT_CLEAN
    if args.baseline == "check":
        try:
            baseline = load_baseline(args.baseline_file)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return EXIT_ERROR
        result, resolved = apply_baseline(result, baseline)
        if resolved:
            print(
                f"baseline: {resolved} tracked finding(s) resolved - run "
                "--baseline write to ratchet them out",
                file=sys.stderr,
            )

    print(render(result, args.format))
    if args.statistics and result.stats is not None:
        print(render_statistics(result.stats), file=sys.stderr)
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS
