(** Coordinate-wise Convex Agreement on integer vectors.

    Runs Π_ℤ once per dimension (sequentially in one protocol value). The
    guarantee is {b box validity}: every coordinate of the common output lies
    within the range of the honest inputs' values {e in that coordinate} —
    i.e. the output is inside the honest inputs' bounding box.

    Box validity is strictly weaker than the multidimensional convex-hull
    validity of Vaidya–Garg [50] / Mendes–Herlihy [37] (the hull is contained
    in the box, and a box point need not be a convex combination of honest
    inputs). The paper is explicitly uni-dimensional; full hull validity
    needs the Tverberg-point machinery of [50] and is out of scope — this
    module exists because box validity is exactly what the coordinate-wise
    trimmed aggregation rules of the distributed-learning applications
    [4, 18, 48] provide, at d × the 1-D cost.

    Communication: d × BITS(Π_ℤ); rounds: d × ROUNDS(Π_ℤ). *)

open Net

(** [agree ctx v]: all honest parties must join with vectors of the same
    publicly-known dimension. Raises [Invalid_argument] on an empty vector
    (dimension is a protocol parameter; a mismatch across honest parties is
    a caller bug, not byzantine behaviour).

    The d per-coordinate Π_ℤ instances run under {!Net.Proto.parallel}, so
    the round count is one Π_ℤ's worth, not d of them. *)
let agree (ctx : Ctx.t) vector =
  let dims = Array.length vector in
  if dims = 0 then invalid_arg "Vector.agree: empty vector";
  Proto.with_label "vector_ca"
    (Proto.map
       (Proto.parallel
          (List.init dims (fun d -> Proto.lift (Ca_int.run ctx vector.(d)))))
       Array.of_list)

(** Box-hull membership: every coordinate within the honest per-coordinate
    range. For tests and harnesses. *)
let in_box ~inputs output =
  match inputs with
  | [] -> false
  | first :: _ ->
      let dims = Array.length first in
      Array.length output = dims
      && List.for_all (fun v -> Array.length v = dims) inputs
      && List.for_all Fun.id
           (List.init dims (fun d ->
                let coord = List.map (fun v -> v.(d)) inputs in
                let lo = List.fold_left Bigint.min (List.hd coord) coord in
                let hi = List.fold_left Bigint.max (List.hd coord) coord in
                Bigint.compare lo output.(d) <= 0
                && Bigint.compare output.(d) hi <= 0))
