(** Deterministic pseudo-randomness (splitmix64) for adversary strategies and
    workload generation. Every experiment in the repository is reproducible
    from its seed; OCaml's global [Random] state is never used. *)

(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field would
   box every new state, and an out-of-line draw would box its result. *)
type t = Bytes.t

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let g = Bytes.create 8 in
  set64u g 0 (Int64.of_int seed);
  g

(* The raw splitmix64 stream; inlined, so callers keep the word unboxed. *)
let[@inline] next_int64 g =
  let open Int64 in
  let z = add (get64u g 0) 0x9E3779B97F4A7C15L in
  set64u g 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** Uniform int in [0, bound). Raises [Invalid_argument] if [bound <= 0]. *)
let int g bound =
  if bound <= 0 then invalid_arg "Prng.int";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 g) 1) (Int64.of_int bound))

let bool g = Int64.logand (next_int64 g) 1L = 1L

(* Byte i is [int g 256] of the i-th draw, written without a closure call
   or a division per byte. *)
let bytes g len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i
      (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical (next_int64 g) 1) land 255))
  done;
  Bytes.unsafe_to_string b

let copy = Bytes.copy

(** A fresh generator whose seed mixes [g]'s stream with [salt] — lets one
    master seed drive independent sub-streams. *)
let split g ~salt = create (Int64.to_int (next_int64 g) lxor (salt * 0x9E3779B9))
