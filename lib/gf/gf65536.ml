type t = int

let order = 65536
let field_mask = 0xffff
let poly = 0x1100B (* x^16 + x^12 + x^3 + x + 1, primitive over GF(2) *)
let zero = 0
let one = 1

(* exp_table.(i) = 2^i for i in [0, 2*65534]; doubled so products of two logs
   index without a modulo. log_table.(x) = log_2 x for x in [1, 65535]. *)
let exp_table, log_table =
  let exp_table = Array.make (2 * 65535) 0 in
  let log_table = Array.make order (-1) in
  let x = ref 1 in
  for i = 0 to 65534 do
    exp_table.(i) <- !x;
    if log_table.(!x) = -1 then log_table.(!x) <- i
    else if i > 0 then failwith "Gf65536: generator is not primitive";
    x := !x lsl 1;
    if !x land 0x10000 <> 0 then x := !x lxor poly
  done;
  if !x <> 1 then failwith "Gf65536: table construction error";
  for i = 65535 to (2 * 65535) - 1 do
    exp_table.(i) <- exp_table.(i - 65535)
  done;
  (exp_table, log_table)

let check x = if x < 0 || x > field_mask then invalid_arg "Gf65536: out of range"

let add a b =
  check a;
  check b;
  a lxor b

let sub = add

let mul a b =
  check a;
  check b;
  if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

let inv a =
  check a;
  if a = 0 then raise Division_by_zero;
  exp_table.(65535 - log_table.(a))

let div a b =
  check a;
  if b = 0 then raise Division_by_zero;
  check b;
  if a = 0 then 0 else exp_table.(log_table.(a) + 65535 - log_table.(b))

let exp i =
  let i = ((i mod 65535) + 65535) mod 65535 in
  exp_table.(i)

(* ---- unchecked hot-loop kernels ----------------------------------------- *)

let mul_unsafe a b =
  if a = 0 || b = 0 then 0
  else
    Array.unsafe_get exp_table
      (Array.unsafe_get log_table a + Array.unsafe_get log_table b)

(* log_table.(0) is -1, never overwritten: 0 is not a power of 2. *)
let log_unsafe a = Array.unsafe_get log_table a

let dot ~coeff_logs ~pos ~ylogs ~k =
  let acc = ref 0 in
  for j = 0 to k - 1 do
    let cl = Array.unsafe_get coeff_logs (pos + j) and yl = Array.unsafe_get ylogs j in
    (* Both logs are -1 or in [0, 65534]: the OR is negative iff one is -1. *)
    if cl lor yl >= 0 then acc := !acc lxor Array.unsafe_get exp_table (cl + yl)
  done;
  !acc

let log a =
  check a;
  if a = 0 then invalid_arg "Gf65536.log 0";
  log_table.(a)

let pow a n =
  check a;
  if a = 0 then if n = 0 then 1 else 0
  else exp (log_table.(a) * (((n mod 65535) + 65535) mod 65535) mod 65535)
