(** The Turpin–Coan extension protocol [49]: multivalued BA from binary BA
    with O(ℓn²) extra communication, resilient for t < n/3.

    The classical "cheap" multivalued BA the paper's related work contrasts
    with: quadratic in n, and — like any plain BA — offering no convex
    validity. Serves as the O(ℓn²) baseline in experiments T1/T2/F1.

    Guarantees: Termination, Agreement; Validity (unanimous honest inputs are
    kept). When honest parties disagree the output may be [spec.default]. *)

val run_bytes : Net.Ctx.t -> string -> string Net.Proto.m
(** Byte-string values; the default output is the empty string. *)
