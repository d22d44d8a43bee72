"""The layers of approxcat the traced run measures, and the per-layer
metrics derived from a traced worker's summary.

A layer is a module. For each function listed, the traced run reports
``<module>.<function>.calls`` and ``<module>.<function>.self_s``, and for
each module the sums ``<module>.calls`` and ``<module>.self_s``. Generators
also report ``.items``, the values they yielded. The comment on each layer
names the end-to-end metrics that a change to it should move.
"""

LAYERS = {
    # items_per_s and item_p50_ms on loop-filt and a2-filt; not item_p50_ms
    # on cli-cold, where interpreter start and import dominate
    "matrix": [
        "Matrix.__init__",
        "Matrix.__matmul__",
        "Matrix.rref",
        "Matrix.solve",
        "Matrix.kernel_basis",
        "Matrix.transpose",
    ],
    # cokernel and preimage_subrep: items_per_s on a2-filt, item_tail_ms on
    # loop-filt; hom_basis: items_per_s on refute-approx-f3
    "rep": [
        "hom_basis",
        "hom_dim",
        "ext1_dim",
        "ext1_basis",
        "cokernel",
        "kernel",
        "preimage_subrep",
        "iso_test",
        "direct_sum",
        "extension_from_cocycle",
    ],
    # item_tail_ms and items_per_s on loop-filt
    "search": ["subspace_table", "SubrepSearch.tuples", "iter_all_reps"],
    # items_per_s on both filt workloads, peak_rss_mb on loop-filt
    "extfilt": [
        "member_filt",
        "member_ext",
        "fr_enumerate",
        "filt_normalize",
        "filt_exchange",
        "FiltrationCertificate.verify",
        "_peel_candidates",
    ],
    # items_per_s on refute-approx-f3
    "approx": [
        "member_add",
        "left_approx_add",
        "right_approx_add",
        "left_approx_ext",
        "left_approx_ext_subclosed",
        "factor_through",
        "verify_evidence",
        "minimize_approx",
    ],
    # items_per_s and item_tail_ms on refute-approx-f3
    "counterex": ["assemble_member", "candidate_maps", "refute", "RefutationWitness.verify"],
    # items_per_s on refute-approx-f3, item_p50_ms on cli-cold
    "serialize": ["certificate_to_jsonable", "certificate_from_jsonable", "verify_certificate"],
    # setup_s everywhere, item_p50_ms on cli-cold
    "cli": ["load_workspace", "main"],
}

GENERATORS = {"SubrepSearch.tuples", "iter_all_reps", "_peel_candidates"}

# items_per_s on loop-filt; on refute-approx-f3 it shows whether a special
# case for p = 2 costs anything for p = 3
FIELD_OPS = ["FieldSpec.add", "FieldSpec.sub", "FieldSpec.mul", "FieldSpec.inv", "FieldSpec.coerce"]

SPAN_TARGETS = [
    (f"approxcat.{module}", fn) for module, fns in LAYERS.items() for fn in fns
]
COUNT_TARGETS = [("approxcat.fields", fn) for fn in FIELD_OPS]


def _metric_table():
    """[(name, unit, better)] in report order."""
    out = []
    for module, fns in LAYERS.items():
        if module == "cli":
            out.append(("cli.import_s", "s", "lower"))
        for fn in fns:
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.self_s", "s", "lower"))
            if fn in GENERATORS:
                out.append((f"{module}.{fn}.items", "count", "lower"))
        out.append((f"{module}.calls", "count", "lower"))
        out.append((f"{module}.self_s", "s", "lower"))
        if module == "matrix":
            out.append(("matrix.self_share", "ratio", "lower"))
            out.append(("fields.ops", "count", "lower"))
        if module == "search":
            out.append(("search.subspace_cache.size", "count", "lower"))
        if module == "extfilt":
            out.append(("extfilt.member_filt.found_ratio", "ratio", "higher"))
            out.append(("extfilt.cokernels_per_decision", "ratio", "lower"))
            out.append(("extfilt.depth_memo.size", "count", "lower"))
        if module == "serialize":
            out.append(("serialize.bytes", "bytes", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


METRICS = _metric_table()


def repeatable(summary):
    """The counts of one traced worker that must not vary between runs."""
    return {
        "calls": summary["calls"],
        "items": summary["items"],
        "returned": summary["returned"],
        "counts": summary["counts"],
        "sizes": summary["sizes"],
    }


def per_layer(summary, self_s, wall_s, import_s, serialized_bytes, overhead_ratio):
    """{metric name: value} for every name in METRICS.

    summary: one traced worker's summary (the counts repeat across workers);
    self_s: {span name: self time}, the median over traced workers;
    wall_s: the traced time that matrix.self_share divides by.
    """
    calls = summary["calls"]
    items = summary["items"]
    values = {}
    for module, fns in LAYERS.items():
        module_calls = 0
        module_self = 0.0
        for fn in fns:
            span = f"{module}.{fn}"
            values[f"{span}.calls"] = calls.get(span, 0)
            values[f"{span}.self_s"] = self_s.get(span, 0.0)
            if fn in GENERATORS:
                values[f"{span}.items"] = items.get(span, 0)
            module_calls += values[f"{span}.calls"]
            module_self += values[f"{span}.self_s"]
        values[f"{module}.calls"] = module_calls
        values[f"{module}.self_s"] = module_self
    values["matrix.self_share"] = values["matrix.self_s"] / wall_s if wall_s else 0.0
    values["fields.ops"] = sum(summary["counts"].values())
    values["search.subspace_cache.size"] = summary["sizes"]["subspace_cache"]
    filt_calls = values["extfilt.member_filt.calls"]
    found = summary["returned"].get("extfilt.member_filt", 0)
    values["extfilt.member_filt.found_ratio"] = found / filt_calls if filt_calls else 0.0
    values["extfilt.cokernels_per_decision"] = (
        values["rep.cokernel.calls"] / filt_calls if filt_calls else 0.0
    )
    values["extfilt.depth_memo.size"] = summary["sizes"]["depth_memo"]
    values["serialize.bytes"] = serialized_bytes
    values["cli.import_s"] = import_s
    values["trace.overhead_ratio"] = overhead_ratio
    return values
