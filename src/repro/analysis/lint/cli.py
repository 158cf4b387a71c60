"""Command-line interface: ``python -m repro.analysis.lint``.

Targets are either **channel preset names** (``integrated``, ``fast-bus``,
``slow-prototype`` — each builds the full coprocessor system on that link;
``integrated:n_hosts=2`` builds the integrated one for two CPUs on the
shared host bus)
or **paths to Python files** exposing a ``build_for_lint()`` function that
returns something lintable (a component tree, a built system, or a
simulator).  ``--all`` expands to every preset, the 2-CPU integrated
system and every example shipped in ``examples/``.

Exit status: 0 when no finding reaches the ``--fail-on`` severity
(default ``error``), 1 when one does, 2 on usage errors.  ``--json``
switches the report to a machine-readable rendering for CI artifacts.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from .diagnostics import LintReport, Severity
from .engine import Linter, iter_rule_catalog

_SEVERITIES = {s.value: s for s in Severity}

#: baseline file schema version (bump on key-format changes)
_BASELINE_VERSION = 1


def _finding_key(diag) -> str:
    """Stable identity of a finding across runs: rule + where it points.

    Messages are deliberately excluded — they embed values that legitimate
    refactors shift (line numbers, proven ranges) without changing *what*
    is wrong.
    """
    return f"{diag.rule_id}|{diag.component}|{diag.signal or ''}"


def _write_baseline(path: Path,
                    reports: List[Tuple[str, LintReport]]) -> None:
    payload = {
        "version": _BASELINE_VERSION,
        "findings": {
            label: sorted({_finding_key(d) for d in rep.diagnostics})
            for label, rep in reports
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _apply_baseline(path: Path,
                    reports: List[Tuple[str, LintReport]]) -> int:
    """Drop findings present in the baseline; return how many were waived.

    Unknown targets fall back to an empty baseline (every finding is new),
    so adding a preset/example to CI fails loudly instead of silently
    inheriting a waiver.
    """
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(
            f"baseline {path} does not exist — create it with "
            "--update-baseline"
        )
    if payload.get("version") != _BASELINE_VERSION:
        raise SystemExit(f"baseline {path} has an unsupported version")
    known = payload.get("findings", {})
    waived = 0
    for label, rep in reports:
        allowed = set(known.get(label, ()))
        kept = [d for d in rep.diagnostics if _finding_key(d) not in allowed]
        waived += len(rep.diagnostics) - len(kept)
        rep.diagnostics[:] = kept
    return waived


#: the multi-CPU system ``--all`` lints besides the one-CPU presets
MULTIHOST_TARGET = "integrated:n_hosts=2"


def _build_preset(preset: str, n_hosts: int) -> Any:
    from ...messages.channel import PRESETS
    from ...system.builder import build_system

    # lint="off": the CLI is the lint pass; double-running would also make
    # a failing design impossible to build and report on.
    return build_system(channel=PRESETS[preset], n_hosts=n_hosts, lint="off")


def _load_example(path: Path) -> Any:
    spec = importlib.util.spec_from_file_location(
        f"_lint_target_{path.stem}", path
    )
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    builder = getattr(module, "build_for_lint", None)
    if builder is None:
        raise SystemExit(
            f"{path} has no build_for_lint() — lintable example modules "
            "expose one returning a component tree or built system"
        )
    return builder()


def _examples_dir() -> Optional[Path]:
    # repo layout: src/repro/analysis/lint/cli.py → repo root is parents[4]
    root = Path(__file__).resolve().parents[4]
    cand = root / "examples"
    return cand if cand.is_dir() else None


def _expand_targets(args: argparse.Namespace) -> List[Tuple[str, Any]]:
    from ...messages.channel import PRESETS

    names: List[str] = list(args.targets)
    if args.all:
        names.extend(sorted(PRESETS))
        names.append(MULTIHOST_TARGET)
        ex_dir = _examples_dir()
        if ex_dir is not None:
            # repo-relative labels so a baseline written on one checkout
            # matches on another (CI runners, worktrees)
            root = ex_dir.parent
            names.extend(
                str(p.relative_to(root)) for p in sorted(ex_dir.glob("*.py"))
                if p.name != "__init__.py"
            )
    if not names:
        names = sorted(PRESETS)
    targets: List[Tuple[str, Any]] = []
    for name in names:
        if name in PRESETS:
            targets.append((name, ("preset", (name, 1))))
        elif name == MULTIHOST_TARGET:
            targets.append((name, ("preset", ("integrated", 2))))
        else:
            path = Path(name)
            if not path.exists():
                # relative labels from the --all expansion resolve against
                # the repo root regardless of the invocation directory
                ex_dir = _examples_dir()
                alt = None if ex_dir is None else ex_dir.parent / path
                if alt is not None and alt.exists():
                    path = alt
                else:
                    known = ", ".join(sorted(PRESETS))
                    raise SystemExit(
                        f"unknown target {name!r}: not a preset ({known}) "
                        "and not a file"
                    )
            targets.append((name, ("file", path)))
    return targets


def _lint_one(kind_arg: Tuple[str, Any], linter: Linter) -> LintReport:
    kind, arg = kind_arg
    if kind == "preset":
        built = _build_preset(*arg)
        return linter.lint(built.soc, sim=built.sim)
    return linter.lint(_load_example(arg))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Elaboration-time design-rule checker for the "
                    "component graph and kernel contracts.",
    )
    parser.add_argument(
        "targets", nargs="*",
        help="channel preset names, integrated:n_hosts=2 and/or paths to "
             "modules exposing build_for_lint()",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="lint every channel preset, the 2-CPU integrated system and "
             "every shipped example",
    )
    parser.add_argument(
        "--rules", metavar="ID[,ID...]",
        help="comma-separated rule ids to run; globs select families, "
             "e.g. 'dataflow.*' (default: all)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", type=Path,
        help="waive findings recorded in FILE: only *new* findings count "
             "toward --fail-on (CI gates on regressions, not backlog)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline FILE from this run's findings and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON (one object, reports keyed by target)",
    )
    parser.add_argument(
        "--min-severity", choices=sorted(_SEVERITIES), default="info",
        help="hide findings below this severity in the text report",
    )
    parser.add_argument(
        "--fail-on", choices=("warning", "error", "never"), default="error",
        help="exit non-zero when a finding at/above this severity exists "
             "(default: error)",
    )
    parser.add_argument(
        "--no-probe", action="store_true",
        help="pure-static mode: never execute combinational processes",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rid, severity, title in iter_rule_catalog():
            print(f"{rid:28s} {severity.value:8s} {title}")
        return 0

    if args.update_baseline and args.baseline is None:
        print("--update-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    rule_ids = None
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]

    try:
        linter = Linter(rule_ids, probe=not args.no_probe)
    except KeyError as exc:
        print(f"unknown rule id(s): {exc.args[0]}", file=sys.stderr)
        return 2
    reports: List[Tuple[str, LintReport]] = []
    for label, kind_arg in _expand_targets(args):
        reports.append((label, _lint_one(kind_arg, linter)))

    if args.baseline is not None:
        if args.update_baseline:
            _write_baseline(args.baseline, reports)
            print(f"baseline written: {args.baseline}")
            return 0
        waived = _apply_baseline(args.baseline, reports)
        if waived:
            print(f"{waived} baselined finding(s) waived "
                  f"({args.baseline})", file=sys.stderr)

    if args.as_json:
        payload = {
            "targets": {label: rep.as_dict() for label, rep in reports},
            "summary": {
                "errors": sum(len(r.errors) for _, r in reports),
                "warnings": sum(len(r.warnings) for _, r in reports),
                "suppressed": sum(len(r.suppressed) for _, r in reports),
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        min_sev = _SEVERITIES[args.min_severity]
        for label, rep in reports:
            print(f"== {label} ==")
            print(rep.format(min_sev))

    if args.fail_on == "never":
        return 0
    threshold = Severity.ERROR if args.fail_on == "error" else Severity.WARNING
    failed = any(rep.at_least(threshold) for _, rep in reports)
    return 1 if failed else 0
