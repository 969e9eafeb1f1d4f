type t = int

let order = 65536
let field_mask = 0xffff
let poly = 0x1100B (* x^16 + x^12 + x^3 + x + 1, primitive over GF(2) *)
let zero = 0
let one = 1

(* Native-endian 16-bit cells: a table entry is written and read in this
   process only, so byte order never leaves it. Offsets are in bytes. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

(* exp_table cell i = 2^i for i in [0, 2*65534]; doubled so products of two
   logs index without a modulo. log_table cell x = log_2 x for x in
   [1, 65535]; cell 0 holds 0xffff, which no log equals. Two 16-bit tables
   (256 KiB + 128 KiB) rather than int arrays: a quarter of the memory, and
   no field for the major GC to mark. Built in place, with no scratch. *)
let exp_table, log_table =
  let exp_table = Bytes.create (2 * 2 * 65535) in
  let log_table = Bytes.make (2 * order) '\xff' in
  let x = ref 1 in
  for i = 0 to 65534 do
    set16 exp_table (2 * i) !x;
    set16 exp_table (2 * (i + 65535)) !x;
    if get16 log_table (2 * !x) = 0xffff then set16 log_table (2 * !x) i
    else failwith "Gf65536: generator is not primitive";
    x := !x lsl 1;
    if !x land 0x10000 <> 0 then x := !x lxor poly
  done;
  if !x <> 1 then failwith "Gf65536: table construction error";
  (exp_table, log_table)

let exp_at i = get16 exp_table (2 * i)
let log_at a = get16 log_table (2 * a)
let check x = if x < 0 || x > field_mask then invalid_arg "Gf65536: out of range"

let add a b =
  check a;
  check b;
  a lxor b

let sub = add

let mul a b =
  check a;
  check b;
  if a = 0 || b = 0 then 0 else exp_at (log_at a + log_at b)

let inv a =
  check a;
  if a = 0 then raise Division_by_zero;
  exp_at (65535 - log_at a)

let div a b =
  check a;
  if b = 0 then raise Division_by_zero;
  check b;
  if a = 0 then 0 else exp_at (log_at a + 65535 - log_at b)

let exp i =
  let i = ((i mod 65535) + 65535) mod 65535 in
  exp_at i

(* ---- unchecked hot-loop kernels ----------------------------------------- *)

(* Inlined into the decoder's per-symbol loop. *)
let[@inline] log_unsafe a = if a = 0 then -1 else log_at a

let dot ~coeff_logs ~pos ~ylogs ~k =
  let acc = ref 0 in
  for j = 0 to k - 1 do
    let cl = Array.unsafe_get coeff_logs (pos + j) and yl = Array.unsafe_get ylogs j in
    (* Both logs are -1 or in [0, 65534]: the OR is negative iff one is -1. *)
    if cl lor yl >= 0 then acc := !acc lxor exp_at (cl + yl)
  done;
  !acc

let log a =
  check a;
  if a = 0 then invalid_arg "Gf65536.log 0";
  log_at a

let pow a n =
  check a;
  if a = 0 then if n = 0 then 1 else 0
  else exp (log_at a * (((n mod 65535) + 65535) mod 65535) mod 65535)
