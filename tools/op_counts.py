"""Deterministic operation counts of one repetition of a benchmark workload.

    python tools/op_counts.py <workload> <seed> [checkout]

runs every item of the workload's seed once, in this process (the in-process
workloads: a2-filt, loop-filt, refute-approx-f3), against the
sources of checkout (default: this repository), and prints one JSON object
of call counts. A profile hook counts calls by code object, so a function
imported under another name is still counted. Besides the calls of
Matrix.rref, Matrix.__matmul__, Matrix.solve, rep.cokernel and
approx.member_add it counts the member_add calls made from extfilt, the
solves that reduce [A | b] (rref_solves): every solve where Matrix has no
_unit_rows, else those where _unit_rows, called from solve, returned None;
the _unit_rows calls made from anywhere but solve (unit_rows_outside_solve:
a kernel's unit rows scanned again, as rep._factor_system did before
kernels handed out their free columns); the factorization
systems built (rep._factor_system); every hom system built (hom_systems:
rep._hom_system, whoever calls it) and the kernels computed from them
(hom_kernels: Matrix.kernel_basis or Matrix.kernel called from hom_basis,
_factor_system or the rep._hom_kernel cache, whichever of them computes
it in checkout); the per-copy answers computed when a map into a
semisimple far end is factored on the left one simple copy at a time
(copy_factorizations: the calls of rep._lift made from rep._copy_lifts,
that is the misses of the (x, slice) memo on z), 0 in a checkout without
them; the rep JSON bodies actually parsed (rep_parses:
serialize._parse_rep where it exists, else every rep_from_jsonable);
every approx.verify_evidence call, the recursive ones for the ends of
an extension included; and the calls of Matrix.flat on F2 matrices, each of which unpacks the stored bit
rows (f2_flat; f2_flat_outside_matrix counts those made from another
module than matrix.py, such as rep's reads of hom systems and kernels).
A checkout whose Matrix has no flat counts none. Value construction and
comparison: the calls of Rep.__init__ and RepMorphism.__init__ (the
validating constructors), of Matrix._fill (the shape check behind
Matrix(...) and Matrix._trusted) and of FieldSpec.__eq__ and
Quiver.__eq__; a checkout that lacks one of these (interned fields and
quivers compare by identity, with no __eq__ of their own) counts 0.
Handle work: the rep.direct_sum_rep calls made from
AddCategory.canonical_sum (canonical_sums_built: the canonical sums
actually built, whether or not the handle keeps them) and the
AddEvidence objects constructed (add_evidence_built). Rep hashing: the
calls of Rep.__hash__ (rep_hashes) and those that compute the hash
(rep_hashes_computed), that is every call in a checkout whose Rep keeps
no hash, else the calls made while its _hash slot is still empty. Work
done behind the matrix caches: the calls of the functions that matrix's bounded
caches wrap (rref_computed: matrix._rref, products_computed:
matrix._matmul, kernels_computed: matrix._kernel), that is the cache
misses, where rref, matmul and solve count the method calls; a checkout
without those caches counts none. "caches" holds, for every
functools.lru_cache a module of the package defines, its hits and misses
over the run, its size at the end and its bound.
"""

import collections
import json
import pathlib
import sys
import tempfile


def main(root: pathlib.Path, workload: str, seed: int) -> dict:
    sys.path[:0] = [str(root / "src"), str(root)]
    from approxcat import approx, extfilt, fields, matrix, quiver, rep, serialize
    from perfbench import workloads

    targets = {
        matrix.Matrix.rref.__code__: "rref",
        matrix.Matrix.__matmul__.__code__: "matmul",
        matrix.Matrix.solve.__code__: "solve",
        rep.cokernel.__code__: "cokernel",
        approx.member_add.__code__: "member_add",
        rep._factor_system.__code__: "factor_systems",
        rep._hom_system.__code__: "hom_systems",
        getattr(serialize, "_parse_rep", serialize.rep_from_jsonable).__code__: "rep_parses",
        approx.verify_evidence.__code__: "verify_evidence",
        approx.AddEvidence.__init__.__code__: "add_evidence_built",
        rep.Rep.__hash__.__code__: "rep_hashes",
    }
    values = {"Rep.__init__": (rep.Rep, "__init__"),
              "RepMorphism.__init__": (rep.RepMorphism, "__init__"),
              "Matrix._fill": (matrix.Matrix, "_fill"),
              "FieldSpec.__eq__": (fields.FieldSpec, "__eq__"),
              "Quiver.__eq__": (quiver.Quiver, "__eq__")}
    for name, wrapper in (("rref_computed", "_rref"), ("products_computed", "_matmul"),
                          ("kernels_computed", "_kernel")):
        if hasattr(matrix, wrapper):
            targets[getattr(matrix, wrapper).__wrapped__.__code__] = name
    for name, (cls, attr) in values.items():
        if attr in vars(cls):
            targets[vars(cls)[attr].__code__] = name
    kernels = {getattr(matrix.Matrix, name).__code__
               for name in ("kernel_basis", "kernel") if hasattr(matrix.Matrix, name)}
    kernel_callers = {rep.hom_basis.__code__, rep._factor_system.__code__}
    if hasattr(rep, "_hom_kernel"):
        kernel_callers.add(rep._hom_kernel.__wrapped__.__code__)
    copy_lifts = getattr(getattr(rep, "_copy_lifts", None), "__code__", None)
    lift = getattr(getattr(rep, "_lift", None), "__code__", None)
    unit = getattr(matrix.Matrix, "_unit_rows", None)
    solve = matrix.Matrix.solve.__code__
    sum_rep = getattr(rep, "direct_sum_rep", rep.direct_sum).__code__
    canonical = approx.AddCategory.canonical_sum.__code__
    flat = getattr(getattr(matrix.Matrix, "flat", None), "__code__", None)
    counts = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            name = targets.get(frame.f_code)
            if name:
                counts[name] += 1
                if name == "member_add" and frame.f_back.f_code.co_filename == extfilt.__file__:
                    counts["member_add_from_extfilt"] += 1
                elif name == "rep_hashes":
                    counts["rep_hashes_computed"] += getattr(frame.f_locals["self"], "_hash",
                                                             None) is None
            elif frame.f_code is sum_rep and frame.f_back.f_code is canonical:
                counts["canonical_sums_built"] += 1
            elif frame.f_code in kernels and frame.f_back.f_code in kernel_callers:
                counts["hom_kernels"] += 1
            elif frame.f_code is lift and frame.f_back.f_code is copy_lifts:
                counts["copy_factorizations"] += 1
            elif (unit is not None and frame.f_code is unit.__code__
                  and frame.f_back.f_code is not solve):
                counts["unit_rows_outside_solve"] += 1
            elif frame.f_code is flat and frame.f_locals["self"].field.modulus == 2:
                counts["f2_flat"] += 1
                if frame.f_back.f_code.co_filename != matrix.__file__:
                    counts["f2_flat_outside_matrix"] += 1
        elif (event == "return" and unit is not None and frame.f_code is unit.__code__
              and frame.f_back.f_code is solve):
            counts["selection_solves"] += arg is not None

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.make(workload, workdir, inproc=True)
        items = wl.build(seed)
        before = caches()
        sys.setprofile(hook)
        try:
            for item in items:
                wl.run(item)
        finally:
            sys.setprofile(None)
    counts["rref_solves"] = counts["solve"] - counts["selection_solves"]
    counts["items"] = len(items)
    for name in [*values, "hom_kernels", "unit_rows_outside_solve", "canonical_sums_built",
                 "copy_factorizations", "rep_hashes_computed"]:
        counts[name] += 0
    out = dict(sorted(counts.items()))
    out["caches"] = {}
    for name, info in sorted(caches().items()):
        hits, misses = before.get(name, (0, 0))[:2]
        out["caches"][name] = {"hits": info.hits - hits, "misses": info.misses - misses,
                               "currsize": info.currsize, "maxsize": info.maxsize}
    return out


def caches() -> dict:
    """cache_info() of every lru_cache defined by a loaded module of the
    package, keyed "module.name"."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("approxcat."):
            for name, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and obj.__module__ == mod_name:
                    out[f"{mod_name.removeprefix('approxcat.')}.{name}"] = obj.cache_info()
    return out


if __name__ == "__main__":
    checkout = pathlib.Path(sys.argv[3]) if len(sys.argv) > 3 else pathlib.Path(__file__).parent.parent
    print(json.dumps(main(checkout.resolve(), sys.argv[1], int(sys.argv[2]))))
