"""Command-line front end.

A workspace file defines the quiver, the field, named representations and
named subcategory handles; one subcommand per library operation works on
those names. Reports go to stdout as JSON (deterministically ordered) with
a short human summary on stderr; --json-only silences the summary.

Exit codes: 0 for success or a found object, 1 for a sound negative (a
member that is not there, a candidate that is refuted, a certificate that
does not verify, a failed scenario), 2 for input problems, 3 for budget,
hypothesis or structural errors, 4 for an internal error (any other
exception: a crash never reads as a negative answer). Library errors carry
their own code and exit value.

Each command imports the filtration, refutation and scenario modules only
when it uses them, so a one-shot command pays for no other command's
imports; an unknown scenario name is refused by run_scenario, which holds
the one list of names.
"""

import argparse
import json
import sys

from .approx import (
    AddCategory,
    ExtCategory,
    left_approx,
    left_approx_ext,
    left_approx_ext_subclosed,
    member_add,
    minimize_approx,
    right_approx_add,
)
from .errors import ApproxcatError, CertificateError, ShapeError, _need
from .fields import FieldSpec
from .quiver import Quiver
from .rep import ext1_dim, hom_basis
from .search import Budget, budget_limit, default_budget
from .serialize import (
    certificate_from_jsonable,
    certificate_to_jsonable,
    evidence_from_jsonable,
    evidence_to_jsonable,
    filtration_to_jsonable,
    morphism_from_jsonable,
    morphism_to_jsonable,
    rep_from_jsonable,
    verify_certificate,
)

WORKSPACE_FORMAT = 1
INTERNAL_ERROR_EXIT = 4


class Workspace:
    """Named representations and handles over one quiver and one field."""

    def __init__(self, quiver, field, reps, handles):
        self.quiver = quiver
        self.field = field
        self.reps = reps
        self.handles = handles

    def rep(self, name):
        if name not in self.reps:
            raise ShapeError(f"no representation named {name!r} in the workspace")
        return self.reps[name]

    def handle(self, name):
        if name not in self.handles:
            raise ShapeError(f"no handle named {name!r} in the workspace")
        return self.handles[name]


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ShapeError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # json raises ValueError for integers past the digit limit as well
        # as for malformed text, and RecursionError for deep nesting
        raise ShapeError(f"{path} is not valid JSON: {exc}") from None


def load_workspace(path) -> Workspace:
    data = _load_json(path)
    if not isinstance(data, dict) or data.get("format") != WORKSPACE_FORMAT:
        raise ShapeError(f"workspace {path} must carry \"format\": {WORKSPACE_FORMAT}")
    if "quiver" not in data or "field" not in data:
        raise ShapeError("workspace needs \"quiver\" and \"field\" entries")
    quiver = Quiver.from_jsonable(data["quiver"])
    field = FieldSpec.from_label(data["field"])
    reps_data, handles_data = data.get("reps", {}), data.get("handles", {})
    if not isinstance(reps_data, dict) or not isinstance(handles_data, dict):
        raise ShapeError("workspace \"reps\" and \"handles\" must be objects keyed by name")
    reps = {name: rep_from_jsonable(quiver, field, spec) for name, spec in reps_data.items()}
    handles = {}

    def build_handle(spec, trail):
        if isinstance(spec, str):
            if spec in handles:
                return handles[spec]
            if spec in reps:
                raise ShapeError(
                    f"{spec!r} names a representation; handles are defined "
                    "under \"handles\""
                )
            raise ShapeError(f"unknown handle reference {spec!r}")
        if not isinstance(spec, dict):
            raise ShapeError(f"bad handle definition near {trail}")
        if ("add" in spec) == ("ext" in spec):
            raise ShapeError(f"handle {trail} needs exactly one of an \"add\" or \"ext\" entry")
        if "add" in spec:
            names = spec["add"]
            if not isinstance(names, list) or not all(isinstance(rn, str) for rn in names):
                raise ShapeError(f"handle {trail}: \"add\" takes a list of rep names")
            gens = []
            for rn in names:
                if rn not in reps:
                    raise ShapeError(f"handle {trail} lists unknown rep {rn!r}")
                gens.append(reps[rn])
            return AddCategory(gens, quiver=quiver, field=field)
        parts = spec["ext"]
        if not isinstance(parts, list) or len(parts) != 2:
            raise ShapeError(f"handle {trail}: \"ext\" takes two entries")
        return ExtCategory(
            build_handle(parts[0], trail + ".left"),
            build_handle(parts[1], trail + ".right"),
        )

    for name, spec in handles_data.items():
        if name in reps:
            raise ShapeError(f"name collision between a rep and a handle: {name!r}")
        handles[name] = build_handle(spec, name)
    return Workspace(quiver, field, reps, handles)


def _budget_from_args(args) -> Budget:
    """The default budget with each limit given on the command line in its place."""
    base = default_budget()
    return Budget(base.max_total_dim if args.max_total_dim is None else args.max_total_dim,
                  base.max_subspaces if args.max_subspaces is None else args.max_subspaces)


def _add_handle_or_die(handle, flag):
    if not isinstance(handle, AddCategory):
        raise ShapeError(
            f"{flag} must name an add handle; extension handles are taken by "
            "member-ext, approx-left, and approx-ext except as --y under "
            "--assume-subobject-closed"
        )
    return handle


def _approximation_report(cert, what):
    """The report of a verified approximation; `what` names it in the summary."""
    payload = {
        "certificate": certificate_to_jsonable(cert),
        "approximating_dims": list(cert.approximating.dims),
    }
    return 0, payload, f"{what} {tuple(cert.approximating.dims)}, verified"


def cmd_hom(args, ws):
    basis = hom_basis(ws.rep(args.source), ws.rep(args.target))
    payload = {
        "dim": len(basis),
        "basis": [morphism_to_jsonable(f) for f in basis],
    }
    return 0, payload, f"dim Hom({args.source}, {args.target}) = {len(basis)}"


def cmd_ext1(args, ws):
    d = ext1_dim(ws.rep(args.source), ws.rep(args.target))
    return (
        0, {"dim": d},
        f"dim Ext1({args.source}, {args.target}) = {d} "
        "(classes of extensions with the target as subobject)",
    )


def cmd_approx_side(args, ws):
    m, handle = ws.rep(args.of), ws.handle(args.into)
    cert = (left_approx(m, handle) if args.side == "left"
            else right_approx_add(m, _add_handle_or_die(handle, "--into")))
    if args.minimize:
        cert = minimize_approx(cert)
    return _approximation_report(cert, f"{args.side} approximation of {args.of}: target dims")


def cmd_approx_ext(args, ws):
    m, x, y = ws.rep(args.of), ws.handle(args.x), ws.handle(args.y)
    if args.assume_subobject_closed:
        y = _add_handle_or_die(y, "--y")
        cert = left_approx_ext_subclosed(m, x, y, budget=_budget_from_args(args))
    else:
        cert = left_approx_ext(m, x, y)
    return _approximation_report(
        cert, f"left approximation of {args.of} into {args.x} * {args.y}: dims"
    )


def cmd_member_add(args, ws):
    m = ws.rep(args.rep)
    handle = _add_handle_or_die(ws.handle(args.handle), "--in")
    ev = member_add(m, handle)
    if ev is None:
        return 1, {"member": False}, f"{args.rep} is not in {args.handle}"
    payload = {"member": True, "evidence": evidence_to_jsonable(ev)}
    return (
        0, payload,
        f"{args.rep} is in {args.handle} with multiplicities "
        f"{tuple(ev.multiplicities)}",
    )


def cmd_member_ext(args, ws):
    from .extfilt import member_ext

    m = ws.rep(args.rep)
    handle = ws.handle(args.handle)
    if not isinstance(handle, ExtCategory):
        raise ShapeError("--in must name an ext handle for member-ext")
    ev = member_ext(m, handle.left, handle.right, budget=_budget_from_args(args))
    if ev is None:
        return 1, {"member": False}, f"{args.rep} is not in {args.handle}"
    payload = {"member": True, "evidence": evidence_to_jsonable(ev)}
    return (
        0, payload,
        f"{args.rep} is in {args.handle}: subobject dims "
        f"{tuple(ev.ses.sub.dims)}, quotient dims {tuple(ev.ses.quot.dims)}",
    )


def cmd_member_filt(args, ws):
    from .extfilt import member_filt

    m = ws.rep(args.rep)
    family = AddCategory([ws.rep(n) for n in args.family.split(",")])
    cert = member_filt(m, family, args.depth, budget=_budget_from_args(args))
    if cert is None:
        return (
            1, {"member": False},
            f"{args.rep} has no filtration of depth <= {args.depth} over "
            f"({args.family})",
        )
    payload = {"member": True, "certificate": certificate_to_jsonable(cert)}
    return (
        0, payload,
        f"{args.rep} filters in {cert.depth} layer(s) over ({args.family})",
    )


def _load_filtration_certificate(path):
    from .extfilt import FiltrationCertificate

    data = _load_json(path)
    try:
        cert = certificate_from_jsonable(data)
    except ApproxcatError as exc:
        raise CertificateError(f"{path} cannot be rebuilt: {exc}") from None
    if not isinstance(cert, FiltrationCertificate):
        raise CertificateError(f"{path} is not a filtration certificate")
    if not cert.verify():
        raise CertificateError(f"{path} does not verify")
    return cert


def cmd_exchange(args, ws):
    from .extfilt import filt_exchange

    cert = _load_filtration_certificate(args.certificate)
    swapped = filt_exchange(cert.filtration, args.index)
    factor_dims = [swapped.factor(j).dims for j in range(swapped.depth)]
    payload = {
        "filtration": filtration_to_jsonable(swapped),
        "factor_dims": [list(dims) for dims in factor_dims],
    }
    return (
        0, payload,
        f"exchanged layers {args.index} and {args.index + 1}; factor dims "
        f"{[tuple(dims) for dims in factor_dims]}",
    )


def cmd_normalize(args, ws):
    from .extfilt import filt_normalize

    cert = _load_filtration_certificate(args.certificate)
    out = filt_normalize(cert)
    payload = {"certificate": certificate_to_jsonable(out), "depth": out.depth}
    return 0, payload, f"normalized to depth {out.depth}, verified"


def cmd_refute(args, ws):
    from .counterex import refute

    data = _load_json(args.candidate)
    phi = morphism_from_jsonable(ws.quiver, ws.field, _need(data, "candidate"))
    evidence = evidence_from_jsonable(ws.quiver, ws.field, _need(data, "evidence"))
    witness = refute(phi, evidence)
    if not witness.verify():
        raise CertificateError("the produced witness fails verification")
    payload = {
        "refuted": True,
        "witness": certificate_to_jsonable(witness),
    }
    return (
        1, payload,
        f"refuted: loop index {witness.i0}"
        + (" (escalated truncation)" if witness.escalated else "")
        + ", every composite into W vanishes while Hom(S2, W) is nonzero",
    )


def cmd_verify(args, ws):
    data = _load_json(args.certificate)
    ok = verify_certificate(data)
    return (0 if ok else 1), {"verified": ok}, "verified" if ok else "does not verify"


def cmd_scenario(args, ws):
    from .scenarios import SCENARIOS, run_scenario

    kwargs = {"samples": args.samples, "seed": args.seed}
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    # an unknown name is left to run_scenario, which lists the known ones
    if kwargs and args.name in SCENARIOS and args.name != "loop-refutation":
        raise ShapeError(f"scenario {args.name} takes no --samples or --seed")
    out = run_scenario(args.name, **kwargs)
    return (
        0 if out["passed"] else 1, out,
        f"scenario {args.name}: {'pass' if out['passed'] else 'FAIL'} "
        f"({out['checks']} checks, {out['elapsed_s']}s)",
    )


def _shared_flags(parser, defaults: bool):
    """The flags accepted both before and after the subcommand. The
    subparser copies default to SUPPRESS so they never clobber a value
    parsed at the top level (subparsers re-copy their namespace)."""
    parser.add_argument(
        "--json-only", action="store_true",
        default=False if defaults else argparse.SUPPRESS,
        help="suppress the human summary on stderr",
    )
    for flag, limit in (
        ("--max-total-dim", "total dimension"), ("--max-subspaces", "subspace count"),
    ):
        parser.add_argument(
            flag, type=budget_limit,
            default=None if defaults else argparse.SUPPRESS,
            help=f"enumeration budget: largest {limit} searched",
        )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ShapeError, so that main
    reports them like any other input error; add_subparsers builds its
    subcommand parsers of the same class."""

    def error(self, message):
        raise ShapeError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="approxcat",
        description="Exact approximations, extensions and filtrations of "
        "quiver representations, with re-verifiable certificates.",
    )
    _shared_flags(parser, defaults=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        _shared_flags(p, defaults=False)
        p.set_defaults(fn=fn)
        return p

    def ws_cmd(name, fn, help_text):
        p = cmd(name, fn, help_text)
        p.add_argument("--workspace", required=True, help="workspace JSON file")
        return p

    for name, fn, help_text in (
        ("hom", cmd_hom, "dimension and basis of Hom(from, to)"),
        ("ext1", cmd_ext1, "dimension of Ext1(from, to)"),
    ):
        p = ws_cmd(name, fn, help_text)
        p.add_argument("--from", dest="source", required=True)
        p.add_argument("--to", dest="target", required=True)

    for side, into in (("left", "a handle"), ("right", "an add handle")):
        p = ws_cmd(f"approx-{side}", cmd_approx_side, f"{side} approximation into {into}")
        p.set_defaults(side=side)
        p.add_argument("--of", required=True)
        p.add_argument("--into", required=True)
        p.add_argument("--minimize", action="store_true")

    p = ws_cmd(
        "approx-ext", cmd_approx_ext,
        "left approximation into the extension category x * y",
    )
    p.add_argument("--of", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument(
        "--assume-subobject-closed", action="store_true",
        help="use the image-based construction (no projectives needed at the top "
        "level); y must be an add handle closed under subobjects",
    )

    for kind, fn in (("add", cmd_member_add), ("ext", cmd_member_ext)):
        p = ws_cmd(f"member-{kind}", fn, f"membership in an {kind} handle")
        p.add_argument("--rep", required=True)
        p.add_argument("--in", dest="handle", required=True)

    p = ws_cmd(
        "member-filt", cmd_member_filt,
        "bounded-depth filtration membership over an ordered family",
    )
    p.add_argument("--rep", required=True)
    p.add_argument("--family", required=True, help="comma-separated rep names")
    p.add_argument("--depth", type=int, required=True)

    p = cmd("exchange", cmd_exchange, "exchange adjacent filtration layers")
    p.add_argument("--certificate", required=True, help="filtration certificate file")
    p.add_argument("--index", type=int, required=True)

    p = cmd(
        "normalize", cmd_normalize,
        "reorder and merge a filtration along its family order",
    )
    p.add_argument("--certificate", required=True, help="filtration certificate file")

    p = ws_cmd(
        "refute", cmd_refute,
        "refute a left-approximation candidate on the loop-and-exit quiver",
    )
    p.add_argument(
        "--candidate", required=True,
        help="JSON file with \"candidate\" (morphism) and \"evidence\" entries",
    )

    p = cmd("verify", cmd_verify, "re-verify a serialized certificate")
    p.add_argument("--certificate", required=True)

    p = cmd("scenario", cmd_scenario, "run a named exhaustive check")
    p.add_argument("name", help="scenario name; an unknown name lists the known ones")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    return parser


def _error_report(code, message, exit_code):
    return exit_code, {"error": {"code": code, "message": message}}, f"error[{code}]: {message}"


def main(argv=None) -> int:
    """Run one subcommand and print its report: one JSON line on stdout
    and, unless --json-only, the summary on stderr. A usage error is an
    input error like any other; when it stops the parse, --json-only is
    read off argv. A command that takes --workspace gets it read here; the
    others get None."""
    argv = sys.argv[1:] if argv is None else list(argv)
    json_only = "--json-only" in argv
    try:
        args = build_parser().parse_args(argv)
        json_only = args.json_only
        ws = load_workspace(args.workspace) if "workspace" in args else None
        exit_code, payload, summary = args.fn(args, ws)
    except ApproxcatError as exc:
        exit_code, payload, summary = _error_report(exc.code, str(exc), exc.exit_code)
    except Exception as exc:
        import traceback  # only a crash pays for the import

        traceback.print_exc()
        exit_code, payload, summary = _error_report(
            "InternalError", f"{type(exc).__name__}: {exc}", INTERNAL_ERROR_EXIT
        )
    print(json.dumps(payload, sort_keys=True))
    if not json_only:
        print(summary, file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
