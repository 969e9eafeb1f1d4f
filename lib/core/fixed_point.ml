(** Convex Agreement over fixed-precision rationals.

    The paper (Section 1) notes that taking inputs in ℤ is without loss of
    generality: "one could alternatively interpret the inputs being rational
    numbers with some arbitrary pre-defined precision". This module is that
    interpretation, packaged: a value is an integer count of 10^-decimals
    units, the precision is a public protocol parameter, and agreement runs
    Π_ℤ on the unit counts. Convexity is preserved exactly — the map between
    rationals with fixed precision and their unit counts is a monotone
    bijection.

    Intended for the measurement-flavoured applications in the paper's
    introduction: temperatures ("-10.04"), prices, coordinates. *)

open Net

type t = {
  units : Bigint.t;  (** value × 10^decimals, any sign *)
  decimals : int;  (** number of fractional digits, ≥ 0 *)
}

let units v = v.units
let decimals v = v.decimals

let check_decimals decimals =
  if decimals < 0 then invalid_arg "Fixed_point: negative decimals"

let of_units ~decimals units =
  check_decimals decimals;
  { units; decimals }

let scale decimals = Bigint.of_string ("1" ^ String.make decimals '0')

let of_bigint ~decimals v =
  check_decimals decimals;
  { units = Bigint.mul v (scale decimals); decimals }

(** [of_string ~decimals "-10.04"] parses an optionally-signed decimal
    literal. The fractional part is right-padded with zeros to [decimals]
    digits; literals with {e more} than [decimals] fractional digits are
    rejected rather than silently rounded. Raises [Invalid_argument] on
    malformed input. *)
let of_string ~decimals s =
  check_decimals decimals;
  let fail () = invalid_arg ("Fixed_point.of_string: " ^ s) in
  if String.length s = 0 then fail ();
  let negative, body =
    match s.[0] with
    | '-' -> (true, String.sub s 1 (String.length s - 1))
    | '+' -> (false, String.sub s 1 (String.length s - 1))
    | _ -> (false, s)
  in
  let int_part, frac_part =
    match String.index_opt body '.' with
    | None -> (body, "")
    | Some i ->
        (String.sub body 0 i, String.sub body (i + 1) (String.length body - i - 1))
  in
  if int_part = "" && frac_part = "" then fail ();
  if String.length frac_part > decimals then fail ();
  let digits_ok part = String.for_all (fun c -> c >= '0' && c <= '9') part in
  if not (digits_ok int_part && digits_ok frac_part) then fail ();
  let padded = frac_part ^ String.make (decimals - String.length frac_part) '0' in
  let magnitude_digits =
    (if int_part = "" then "0" else int_part) ^ padded
  in
  let magnitude = Bigint.of_string (if magnitude_digits = "" then "0" else magnitude_digits) in
  { units = (if negative then Bigint.neg magnitude else magnitude); decimals }

let to_string v =
  if v.decimals = 0 then Bigint.to_string v.units
  else begin
    let sign = if Bigint.sign v.units < 0 then "-" else "" in
    let q, r = Bigint.divmod (Bigint.abs v.units) (scale v.decimals) in
    let frac = Bigint.to_string r in
    let frac = String.make (v.decimals - String.length frac) '0' ^ frac in
    Printf.sprintf "%s%s.%s" sign (Bigint.to_string q) frac
  end

let pp fmt v = Format.pp_print_string fmt (to_string v)

let same_precision a b =
  if a.decimals <> b.decimals then
    invalid_arg "Fixed_point: mixed precisions";
  a.decimals

let equal a b = ignore (same_precision a b); Bigint.equal a.units b.units
let compare a b = ignore (same_precision a b); Bigint.compare a.units b.units

let add a b = ignore (same_precision a b); { a with units = Bigint.add a.units b.units }
let sub a b = ignore (same_precision a b); { a with units = Bigint.sub a.units b.units }
let neg a = { a with units = Bigint.neg a.units }

(** Π_ℤ on unit counts. All honest parties must join with the same
    [decimals]; it is a public parameter like n and t (the simulator's [Ctx]
    plays the same role), not something the protocol agrees on. *)
let agree (ctx : Ctx.t) v =
  Proto.map (Proto.lift (Ca_int.run ctx v.units)) (fun units -> { v with units })

(** Convex hull membership at the rational level (for tests/harnesses). *)
let in_convex_hull ~inputs output =
  match inputs with
  | [] -> false
  | first :: _ ->
      let d = List.fold_left (fun d v -> max d (same_precision first v)) 0 inputs in
      ignore d;
      let lo, hi =
        List.fold_left
          (fun (lo, hi) v -> (Bigint.min lo v.units, Bigint.max hi v.units))
          (first.units, first.units) inputs
      in
      output.decimals = first.decimals
      && Bigint.compare lo output.units <= 0
      && Bigint.compare output.units hi <= 0
