(** Reference Reed–Solomon codec (the seed implementation): per-symbol
    barycentric Lagrange evaluation, no precomputation. Slow but simple; the
    production codec in {!Reed_solomon} is differentially tested to be
    bit-identical to this module on every input. *)

val encode : n:int -> k:int -> string -> string array
val decode : n:int -> k:int -> (int * string) list -> (string, string) result
