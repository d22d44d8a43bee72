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
"""

import argparse
import json
import sys

from .approx import (
    AddCategory,
    ExtCategory,
    left_approx_add,
    left_approx_ext,
    left_approx_ext_subclosed,
    member_add,
    minimize_approx,
    right_approx_add,
)
from .counterex import refute
from .errors import ApproxcatError, CertificateError, ShapeError
from .extfilt import (
    OrderedFamily,
    filt_exchange,
    filt_normalize,
    member_ext,
    member_filt,
)
from .fields import FieldSpec
from .quiver import Quiver
from .rep import ext1_dim, hom_basis
from .scenarios import SCENARIOS, run_scenario
from .search import Budget, budget_limit, default_budget
from .serialize import (
    certificate_to_jsonable,
    evidence_from_jsonable,
    evidence_to_jsonable,
    filtration_certificate_from_jsonable,
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
    except json.JSONDecodeError as exc:
        raise ShapeError(f"{path} is not valid JSON: {exc}") from None


def load_workspace(path) -> Workspace:
    data = _load_json(path)
    if not isinstance(data, dict) or data.get("format") != WORKSPACE_FORMAT:
        raise ShapeError(f"workspace {path} must carry \"format\": {WORKSPACE_FORMAT}")
    if "quiver" not in data or "field" not in data:
        raise ShapeError("workspace needs \"quiver\" and \"field\" entries")
    quiver = Quiver.from_jsonable(data["quiver"])
    field = FieldSpec.from_label(data["field"])
    reps = {}
    for name, spec in data.get("reps", {}).items():
        reps[name] = rep_from_jsonable(quiver, field, spec)
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
        if "add" in spec:
            gens = []
            for rn in spec["add"]:
                if rn not in reps:
                    raise ShapeError(f"handle {trail} lists unknown rep {rn!r}")
                gens.append(reps[rn])
            return AddCategory(gens, quiver=quiver, field=field)
        if "ext" in spec:
            parts = spec["ext"]
            if len(parts) != 2:
                raise ShapeError(f"handle {trail}: \"ext\" takes two entries")
            return ExtCategory(
                build_handle(parts[0], trail + ".left"),
                build_handle(parts[1], trail + ".right"),
            )
        raise ShapeError(f"handle {trail} needs an \"add\" or \"ext\" entry")

    for name, spec in data.get("handles", {}).items():
        if name in reps:
            raise ShapeError(f"name collision between a rep and a handle: {name!r}")
        handles[name] = build_handle(spec, name)
    return Workspace(quiver, field, reps, handles)


def _budget_from_args(args) -> Budget:
    base = default_budget()
    return Budget(
        max_total_dim=(
            args.max_total_dim if args.max_total_dim is not None else base.max_total_dim
        ),
        max_subspaces=(
            args.max_subspaces if args.max_subspaces is not None else base.max_subspaces
        ),
    )


def _emit(args, payload, summary):
    print(json.dumps(payload, sort_keys=True))
    if not args.json_only and summary:
        print(summary, file=sys.stderr)


def _add_handle_or_die(handle, flag):
    if not isinstance(handle, AddCategory):
        raise ShapeError(
            f"{flag} must name an add handle; extension handles are built "
            "with approx-ext or member-ext"
        )
    return handle


def cmd_hom(args) -> int:
    ws = load_workspace(args.workspace)
    basis = hom_basis(ws.rep(args.source), ws.rep(args.target))
    payload = {
        "dim": len(basis),
        "basis": [morphism_to_jsonable(f) for f in basis],
    }
    _emit(args, payload, f"dim Hom({args.source}, {args.target}) = {len(basis)}")
    return 0


def cmd_ext1(args) -> int:
    ws = load_workspace(args.workspace)
    d = ext1_dim(ws.rep(args.source), ws.rep(args.target))
    _emit(
        args,
        {"dim": d},
        f"dim Ext1({args.source}, {args.target}) = {d} "
        "(classes of extensions with the target as subobject)",
    )
    return 0


def _approx_cmd(args, side) -> int:
    ws = load_workspace(args.workspace)
    m = ws.rep(args.of)
    handle = _add_handle_or_die(ws.handle(args.into), "--into")
    cert = left_approx_add(m, handle) if side == "left" else right_approx_add(m, handle)
    if args.minimize:
        cert = minimize_approx(cert)
    payload = {
        "certificate": certificate_to_jsonable(cert),
        "approximating_dims": list(cert.approximating.dims),
    }
    _emit(
        args,
        payload,
        f"{side} approximation of {args.of}: target dims "
        f"{tuple(cert.approximating.dims)}, verified",
    )
    return 0


def cmd_approx_left(args) -> int:
    return _approx_cmd(args, "left")


def cmd_approx_right(args) -> int:
    return _approx_cmd(args, "right")


def cmd_approx_ext(args) -> int:
    ws = load_workspace(args.workspace)
    m = ws.rep(args.of)
    x = _add_handle_or_die(ws.handle(args.x), "--x")
    y = _add_handle_or_die(ws.handle(args.y), "--y")
    if args.assume_subobject_closed:
        cert = left_approx_ext_subclosed(m, x, y, budget=_budget_from_args(args))
    else:
        cert = left_approx_ext(m, x, y)
    payload = {
        "certificate": certificate_to_jsonable(cert),
        "approximating_dims": list(cert.approximating.dims),
    }
    _emit(
        args,
        payload,
        f"left approximation of {args.of} into {args.x} * {args.y}: "
        f"dims {tuple(cert.approximating.dims)}, verified",
    )
    return 0


def cmd_member_add(args) -> int:
    ws = load_workspace(args.workspace)
    m = ws.rep(args.rep)
    handle = _add_handle_or_die(ws.handle(args.handle), "--in")
    ev = member_add(m, handle)
    if ev is None:
        _emit(args, {"member": False}, f"{args.rep} is not in {args.handle}")
        return 1
    payload = {"member": True, "evidence": evidence_to_jsonable(ev)}
    _emit(
        args,
        payload,
        f"{args.rep} is in {args.handle} with multiplicities "
        f"{tuple(ev.multiplicities)}",
    )
    return 0


def cmd_member_ext(args) -> int:
    ws = load_workspace(args.workspace)
    m = ws.rep(args.rep)
    handle = ws.handle(args.handle)
    if not isinstance(handle, ExtCategory):
        raise ShapeError("--in must name an ext handle for member-ext")
    ev = member_ext(m, handle.left, handle.right, budget=_budget_from_args(args))
    if ev is None:
        _emit(args, {"member": False}, f"{args.rep} is not in {args.handle}")
        return 1
    payload = {"member": True, "evidence": evidence_to_jsonable(ev)}
    _emit(
        args,
        payload,
        f"{args.rep} is in {args.handle}: subobject dims "
        f"{tuple(ev.ses.sub.dims)}, quotient dims {tuple(ev.ses.quot.dims)}",
    )
    return 0


def cmd_member_filt(args) -> int:
    ws = load_workspace(args.workspace)
    m = ws.rep(args.rep)
    family = OrderedFamily([ws.rep(n) for n in args.family.split(",")])
    cert = member_filt(m, family, args.depth, budget=_budget_from_args(args))
    if cert is None:
        _emit(
            args,
            {"member": False},
            f"{args.rep} has no filtration of depth <= {args.depth} over "
            f"({args.family})",
        )
        return 1
    payload = {"member": True, "certificate": certificate_to_jsonable(cert)}
    _emit(
        args,
        payload,
        f"{args.rep} filters in {cert.depth} layer(s) over ({args.family})",
    )
    return 0


def _load_filtration_certificate(path):
    data = _load_json(path)
    try:
        cert = filtration_certificate_from_jsonable(data)
    except CertificateError:
        raise
    except ApproxcatError as exc:
        raise CertificateError(f"{path} cannot be rebuilt: {exc}") from None
    if not cert.verify():
        raise CertificateError(f"{path} does not verify")
    return cert


def cmd_exchange(args) -> int:
    cert = _load_filtration_certificate(args.certificate)
    swapped = filt_exchange(cert.filtration, args.index)
    payload = {
        "filtration": filtration_to_jsonable(swapped),
        "factor_dims": [list(swapped.factor(j).dims) for j in range(swapped.depth)],
    }
    _emit(
        args,
        payload,
        f"exchanged layers {args.index} and {args.index + 1}; factor dims "
        f"{[tuple(swapped.factor(j).dims) for j in range(swapped.depth)]}",
    )
    return 0


def cmd_normalize(args) -> int:
    cert = _load_filtration_certificate(args.certificate)
    out = filt_normalize(cert)
    payload = {"certificate": certificate_to_jsonable(out), "depth": out.depth}
    _emit(args, payload, f"normalized to depth {out.depth}, verified")
    return 0


def cmd_refute(args) -> int:
    ws = load_workspace(args.workspace)
    data = _load_json(args.candidate)
    if not isinstance(data, dict):
        raise ShapeError("the candidate file must be a JSON object")
    phi = morphism_from_jsonable(ws.quiver, ws.field, _need_entry(data, "candidate"))
    evidence = evidence_from_jsonable(ws.quiver, ws.field, _need_entry(data, "evidence"))
    witness = refute(phi, evidence)
    if not witness.verify():
        raise CertificateError("the produced witness fails verification")
    payload = {
        "refuted": True,
        "witness": certificate_to_jsonable(witness),
    }
    _emit(
        args,
        payload,
        f"refuted: loop index {witness.i0}"
        + (" (escalated truncation)" if witness.escalated else "")
        + ", every composite into W vanishes while Hom(S2, W) is nonzero",
    )
    return 1


def _need_entry(data, key):
    if key not in data:
        raise ShapeError(f"candidate file misses {key!r}")
    return data[key]


def cmd_verify(args) -> int:
    data = _load_json(args.certificate)
    ok = verify_certificate(data)
    _emit(args, {"verified": ok}, "verified" if ok else "does not verify")
    return 0 if ok else 1


def cmd_scenario(args) -> int:
    kwargs = {}
    if args.name == "loop-refutation":
        if args.samples is not None:
            kwargs["samples"] = args.samples
        if args.seed is not None:
            kwargs["seed"] = args.seed
    out = run_scenario(args.name, **kwargs)
    _emit(
        args,
        out,
        f"scenario {args.name}: {'pass' if out['passed'] else 'FAIL'} "
        f"({out['checks']} checks, {out['elapsed_s']}s)",
    )
    return 0 if out["passed"] else 1


def _shared_flags(parser, defaults: bool):
    """The flags accepted both before and after the subcommand. The
    subparser copies default to SUPPRESS so they never clobber a value
    parsed at the top level (subparsers re-copy their namespace)."""
    parser.add_argument(
        "--json-only", action="store_true",
        default=False if defaults else argparse.SUPPRESS,
        help="suppress the human summary on stderr",
    )
    parser.add_argument(
        "--max-total-dim", type=budget_limit,
        default=None if defaults else argparse.SUPPRESS,
        help="enumeration budget: largest total dimension searched",
    )
    parser.add_argument(
        "--max-subspaces", type=budget_limit,
        default=None if defaults else argparse.SUPPRESS,
        help="enumeration budget: largest subspace count searched",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = ws_cmd("hom", cmd_hom, "dimension and basis of Hom(from, to)")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)

    p = ws_cmd("ext1", cmd_ext1, "dimension of Ext1(from, to)")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)

    for name, fn in (("approx-left", cmd_approx_left), ("approx-right", cmd_approx_right)):
        p = ws_cmd(name, fn, f"{name.split('-')[1]} approximation by an add handle")
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
        help="use the image-based construction (no projectives needed); "
        "y must be closed under subobjects",
    )

    p = ws_cmd("member-add", cmd_member_add, "membership in an add handle")
    p.add_argument("--rep", required=True)
    p.add_argument("--in", dest="handle", required=True)

    p = ws_cmd("member-ext", cmd_member_ext, "membership in an ext handle")
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
    p.add_argument("name", choices=sorted(SCENARIOS))
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ApproxcatError as exc:
        code, message, exit_code = exc.code, str(exc), exc.exit_code
    except Exception as exc:
        import traceback  # only a crash pays for the import

        traceback.print_exc()
        code, message = "InternalError", f"{type(exc).__name__}: {exc}"
        exit_code = INTERNAL_ERROR_EXIT
    print(json.dumps({"error": {"code": code, "message": message}}, sort_keys=True))
    if not args.json_only:
        print(f"error[{code}]: {message}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
