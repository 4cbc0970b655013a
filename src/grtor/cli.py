"""Batch command line: parse ring/module input files, dispatch the
pipelines, and emit series, diagrams, certificates and verdicts.

Exit codes: 0 success/verified, 1 usage, parse or internal error (a
GrtorError, or a file that cannot be read), 2 infeasible or unverified,
3 validity window exhausted (a CapExceededError).
"""

import argparse
import json
import sys

from .fields import CapExceededError, Field, GrtorError, field_from_name
from .groebner import (IdealPresentation, ModulePresentation,
                       basis_leads, colength_from_leads, graded_twin, initial_forms,
                       minimal_initial_forms, standard_basis, standard_monomial_layers)
from .filtered import FilteredComplex, resolve_local_cyclic, tensor_over_basis
from .poly import GRADED, LOCAL, Ring, parse_ideal
from .resolution import tor_from_resolution, tor_series
from .series import BigradedSeries, decide_cancellation
from .spectral import run_to_stability

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNVERIFIED = 2
EXIT_WINDOW = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise GrtorError, so that
    `main` reports them as one `error:` line with exit code 1.
    Subparsers are built from the same class."""

    def error(self, message):
        raise GrtorError(message)


def parse_job_file(path):
    """Flat key/value job format with [section] headers; values keep their
    text form.  Errors carry line numbers."""
    sections = {}
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip().lower()
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise GrtorError("%s:%d: expected 'key = value', got %r" % (path, lineno, raw.strip()))
            if current is None:
                raise GrtorError("%s:%d: key/value outside any [section]" % (path, lineno))
            key, val = line.split("=", 1)
            sections[current][key.strip().lower()] = val.strip()
    return sections


def build_ring(sections, args):
    ring_sec = sections.get("ring")
    if ring_sec is None:
        raise GrtorError("input file needs a [ring] section")
    field = Field(args.char) if args.char else field_from_name(ring_sec.get("field", "QQ"))
    variables = ring_sec.get("variables", "").split()
    if not variables:
        raise GrtorError("[ring] needs 'variables = ...'")
    setting = ring_sec.get("setting", "graded").lower()
    cap = args.cap
    if cap is None and "cap" in sections.get("bounds", {}):
        try:
            cap = int(sections["bounds"]["cap"])
        except ValueError:
            raise GrtorError("%s: [bounds] cap = %r is not an integer"
                             % (args.input, sections["bounds"]["cap"])) from None
    if cap is None:
        cap = args.jmax + args.imax + 2
    quotient = ring_sec.get("quotient", "")
    if setting == LOCAL:
        ring = Ring(variables, field, LOCAL, cap=cap)
        if quotient:
            raise GrtorError("local rings with quotients are out of scope; present modules by ideals")
    else:
        base = Ring(variables, field, GRADED)
        gens = parse_ideal(base, quotient) if quotient else ()
        ring = Ring(variables, field, GRADED, quotient=gens)
    return ring, cap


def module_ideal(sections, name, ring):
    sec = sections.get("module %s" % name.lower(), sections.get(name.lower()))
    if sec is None:
        raise GrtorError("input file needs a [module %s] section" % name)
    text = sec.get("ideal", "").strip()
    filtration = sec.get("filtration", "m-adic").lower()
    if filtration != "m-adic":
        raise GrtorError("only the m-adic filtration is supported in job files")
    gens = parse_ideal(ring, text)
    if ring.setting == LOCAL and any(g.is_zero() for g in gens):
        # a generator that is zero here but not in the graded parse died at the cap
        for g, full in zip(gens, parse_ideal(graded_twin(ring), text)):
            if g.is_zero() and not full.is_zero():
                raise CapExceededError("generator %s of [module %s] truncated to zero "
                                       "at cap %d" % (full, name, ring.cap))
    gens = [g for g in gens if not g.is_zero()]  # a literal 0 generates nothing
    return IdealPresentation(ring, gens) if gens else None


def series_json(series):
    return {
        "imax": series.i_max,
        "jmax": series.j_max,
        "terms": [[i, j, series.get(i, j)] for (i, j) in sorted(series.coefficients)],
    }


def emit_series(series, fmt, out):
    if fmt == "json":
        out.write(json.dumps(series_json(series), sort_keys=True) + "\n")
    elif fmt == "series":
        out.write(series.to_text())
    else:
        out.write(series.to_diagram())


def cmd_gr(args, out):
    sections = parse_job_file(args.input)
    ring, cap = build_ring(sections, args)
    if ring.setting != LOCAL:
        raise GrtorError("gr needs a local ring (setting = local)")
    ideal = module_ideal(sections, "M", ring)
    if ideal is None:
        raise GrtorError("gr needs a nonzero ideal in [module M]")
    # one standard basis gives the initial ideal, its leads and the colength
    basis = standard_basis(ideal)
    ini = minimal_initial_forms(graded_twin(ring), basis)
    lm = basis_leads(basis)
    # the leads are certified to the cap only: past it the series is cut
    window = min(args.jmax, cap)
    series = BigradedSeries(0, window)
    for j, layer in enumerate(standard_monomial_layers(lm, ring.nvars, window)):
        series._set(0, j, len(layer))
    # a standard monomial of degree cap leaves the colength and in(I) open:
    # leads past the cap may still join in(I)
    mass = colength_from_leads(ring, lm)
    known = mass != float("inf")
    if args.format == "json":
        out.write(json.dumps({
            "command": "gr",
            "initial_ideal": [str(g) for g in ini],
            "series": series_json(series),
            "colength": mass if known else None,
            "validity_window": window,
        }, sort_keys=True) + "\n")
    else:
        head = "initial ideal" if known else "initial ideal (generators of degree <= %d)" % cap
        out.write("%s: (%s)\n" % (head, ", ".join(str(g) for g in ini)))
        if not known:  # Krull: under n generators, height < n and R/I is infinite
            mass = ("infinite" if len(ideal.generators) < ring.nvars
                    else "unknown (the standard monomials reach the cap %d)" % cap)
        out.write("colength: %s\n" % mass)
        out.write("hilbert series of the associated graded (j <= %d):\n" % window)
        emit_series(series, args.format, out)
    return EXIT_OK


def cmd_tor_gr(args, out):
    sections = parse_job_file(args.input)
    ring, _cap = build_ring(sections, args)
    if ring.setting != GRADED:
        raise GrtorError("tor-gr needs a graded ring (setting = graded)")
    iM = module_ideal(sections, "M", ring)
    iN = module_ideal(sections, "N", ring)
    mM = ModulePresentation.cyclic(ring, iM.generators if iM else [])
    mN = ModulePresentation.cyclic(ring, iN.generators if iN else [])
    series = tor_series(mM, mN, args.imax, args.jmax)
    if args.format == "json":
        out.write(json.dumps({
            "command": "tor-gr",
            "series": series_json(series),
            "validity_window": args.jmax,
        }, sort_keys=True) + "\n")
    else:
        emit_series(series, args.format, out)
    return EXIT_OK


def _check_synthetic(args, out):
    if args.synthetic == "random":
        from .spectral import random_filtered_complex
        L = random_filtered_complex(args.seed)
    else:
        with open(args.synthetic) as fh:
            L = FilteredComplex.from_text(fh.read())
    run = run_to_stability(L)
    return _report_run(args, out, run, tor_graded=None, page1_matches=None)


def _report_run(args, out, run, tor_graded, page1_matches):
    verdict_ok = bool(run.verified) and (page1_matches is not False)
    window_exhausted = run.window_j < 0
    verdict = "PASS" if verdict_ok else "FAIL"
    if window_exhausted:
        verdict = "WINDOW-EXHAUSTED"
    if args.format == "json":
        payload = {
            "command": "check-theorem",
            "page1": series_json(run.page1.dims),
            "page_infinity": series_json(run.page_infinity.dims),
            "page_infinity_indeterminate": sorted(
                [i, j] for (i, j) in run.page_infinity.indeterminate),
            "certificate": [[s.i, s.a, s.b] for s in run.certificate],
            "boundary_indeterminate": [
                [r, i, j, c]
                for r in sorted(run.boundary)
                for (i, j), c in sorted(run.boundary[r].items())
            ],
            "r_stab": run.r_stab,
            "validity_window": run.window_j,
            "verified": bool(run.verified),
            "verdict": verdict,
        }
        if tor_graded is not None:
            payload["tor_graded"] = series_json(tor_graded)
            payload["page1_matches_tor"] = page1_matches
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        if tor_graded is not None:
            out.write("graded Tor series:\n")
            out.write(tor_graded.to_diagram())
        out.write("page 1 (reliable cells):\n")
        out.write(run.page1.dims.to_diagram())
        out.write("page infinity (window j <= %d):\n" % run.window_j)
        out.write(run.page_infinity.dims.to_diagram())
        excluded = sorted(run.page_infinity.indeterminate)
        shown = [c for c in excluded if c[1] <= run.window_j]
        if shown:
            out.write("indeterminate page-infinity cells (fate closes past the "
                      "truncation): %s\n" % " ".join("(%d,%d)" % c for c in shown))
        out.write("certificate (%d steps, 'i a b' means subtract z^{i+1}t^a + z^i t^b):\n"
                  % len(run.certificate))
        out.write(run.certificate.to_text())
        for r in sorted(run.boundary):
            for (i, j), c in sorted(run.boundary[r].items()):
                out.write("boundary-indeterminate: page %d cell (%d, %d): %d unit(s)\n"
                          % (r, i, j, c))
        if tor_graded is not None:
            out.write("page 1 matches graded Tor on the window: %s\n"
                      % ("yes" if page1_matches else "NO"))
        out.write("bookkeeping verified: %s\n" % ("yes" if run.verified else "NO"))
        out.write("verdict: %s\n" % verdict)
    if window_exhausted:
        return EXIT_WINDOW
    return EXIT_OK if verdict_ok else EXIT_UNVERIFIED


def cmd_check_theorem(args, out):
    if args.synthetic:
        return _check_synthetic(args, out)
    if not args.input:
        raise GrtorError("check-theorem needs an input file or --synthetic")
    sections = parse_job_file(args.input)
    ring, cap = build_ring(sections, args)
    if ring.setting == GRADED:
        if ring.quotient:
            raise GrtorError("check-theorem covers the regular case; no ring quotients")
        local = Ring(ring.variables, ring.field, LOCAL, cap=cap)
    else:
        local = ring
    iM = module_ideal(sections, "M", local)
    iN = module_ideal(sections, "N", local)
    if iM is None:
        raise GrtorError("check-theorem needs a nonzero ideal in [module M]")
    for name, ideal in (("M", iM), ("N", iN)):
        # the ideal holds a unit of the local ring iff a generator does
        if ideal is not None and any(g.order_degree() == 0 for g in ideal.generators):
            raise GrtorError("%s = R/I is zero: the [module %s] ideal contains a unit "
                             "of the local ring" % (name, name))

    # one resolution of gr M and one standard basis per ideal serve both sides;
    # gr N needs no minimal presentation, since its pieces read a Groebner
    # basis of the initial forms
    fres = resolve_local_cyclic(iM)
    basis_n = standard_basis(iN) if iN is not None else []
    gring = fres.graded.ring
    mN = ModulePresentation.cyclic(gring, initial_forms(gring, basis_n))
    tor_graded = tor_from_resolution(fres.graded, mN, args.imax, args.jmax)
    run = run_to_stability(tensor_over_basis(fres, basis_n, args.jmax))

    # compare on the cells where either side is nonzero, not a dense grid
    page1 = run.page1.dims
    i_top = min(args.imax, page1.i_max)
    page1_matches = all(page1.get(i, j) == tor_graded.get(i, j)
                        for (i, j) in page1.coefficients.keys() | tor_graded.coefficients.keys()
                        if i <= i_top and j <= args.jmax)
    return _report_run(args, out, run, tor_graded, page1_matches)


def cmd_cancel(args, out):
    with open(args.source) as fh:
        source = BigradedSeries.from_text(fh.read())
    with open(args.target) as fh:
        target = BigradedSeries.from_text(fh.read())
    decision = decide_cancellation(source, target)
    if args.format == "json":
        payload = {
            "command": "cancel",
            "feasible": decision.feasible,
            "certificate": ([[s.i, s.a, s.b] for s in decision.certificate]
                            if decision.feasible else None),
            "negative_cell": (list(decision.negative_cell)
                              if decision.negative_cell else None),
            "unmatched_hard": decision.unmatched_hard,
            "unmatched_boundary": decision.unmatched_boundary,
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    elif decision.feasible:
        out.write(decision.certificate.to_text())
    else:
        out.write("infeasible\n")
        if decision.negative_cell:
            out.write("negative difference at (i=%d, j=%d)\n" % decision.negative_cell)
        else:
            out.write("unmatched units: %d hard, %d boundary-indeterminate\n"
                      % (decision.unmatched_hard, decision.unmatched_boundary))
    return EXIT_OK if decision.feasible else EXIT_UNVERIFIED


# name -> (help line, the command's own arguments, run); the common options follow them
COMMANDS = {
    "gr": ("initial ideal and Hilbert series of the associated graded", [("input", {})], cmd_gr),
    "tor-gr": ("bigraded Tor series over a graded ring", [("input", {})], cmd_tor_gr),
    "check-theorem": (
        "run the spectral sequence and verify the cancellation certificate",
        [("input", {"nargs": "?"}),
         ("--synthetic", {"default": None,
                          "help": "run on a serialized filtered complex instead of ring data"}),
         ("--seed", {"type": int, "default": 0, "help": "seed of --synthetic random"})],
        cmd_check_theorem),
    "cancel": ("decide cancellation between two series files",
               [("source", {}), ("target", {})], cmd_cancel),
}
COMMON = [
    ("--imax", {"type": int, "default": 6}),
    ("--jmax", {"type": int, "default": 12}),
    ("--char", {"type": int, "default": 0, "help": "prime characteristic (0 = rationals)"}),
    ("--cap", {"type": int, "default": None,
               "help": "local truncation cap (default: [bounds] cap, else jmax + imax + 2)"}),
    ("--format", {"choices": ["table", "series", "json"], "default": "table"}),
]


def make_parser(command=None):
    """Given a command name, the parser of `grtor <command>` alone, for the
    words after the name: `main` asks for it when argv's first word names a
    command.  Otherwise, with no words, an option or an unknown name first,
    the full tree of subcommands, which words that argv's help and errors."""
    def build(parser, name):
        arguments, run = COMMANDS[name][1:]
        for flag, kwargs in arguments + COMMON:
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(run=run)
        return parser

    if command in COMMANDS:
        return build(_Parser(prog="grtor " + command), command)
    parser = _Parser(
        prog="grtor",
        description="Bigraded Tor series over associated graded rings and "
                    "negative consecutive cancellation certificates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _arguments, _run) in COMMANDS.items():
        build(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out, err = sys.stdout, sys.stderr
    # out of memory, the interpreter reports on sys.stderr each generator
    # that it then fails to close; the one line below is all a run writes
    sys.stderr = None
    try:
        command, rest = (argv[0], argv[1:]) if argv and argv[0] in COMMANDS else (None, argv)
        args = make_parser(command).parse_args(rest)
        return args.run(args, out)
    except CapExceededError as exc:
        print("window exhausted: %s" % exc, file=err)
        return EXIT_WINDOW
    except (GrtorError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=err)
        return EXIT_USAGE
    except MemoryError:
        pass  # reported below, once the frames that ran out are released
    finally:
        sys.stderr = err
    print("error: out of memory", file=err)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
