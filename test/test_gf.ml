(* Field axioms and table sanity for GF(2^16). *)

module F = Gf65536

(* Table-free product: shift-and-xor, reduced modulo 0x1100B as it goes. *)
let ref_mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 <> 0 then acc := !acc lxor !a;
    a := !a lsl 1;
    if !a land 0x10000 <> 0 then a := !a lxor 0x1100B;
    b := !b lsr 1
  done;
  !acc

let arb_elt = QCheck.int_bound 0xffff
let arb_nonzero = QCheck.map (fun x -> 1 + (x mod 0xffff)) (QCheck.int_bound 100000)

let test_basics () =
  Alcotest.check Alcotest.int "order" 65536 F.order;
  Alcotest.check Alcotest.int "add self" 0 (F.add 0x1234 0x1234);
  Alcotest.check Alcotest.int "mul one" 0xbeef (F.mul 0xbeef F.one);
  Alcotest.check Alcotest.int "mul zero" 0 (F.mul 0xbeef F.zero);
  Alcotest.check Alcotest.int "exp 0" 1 (F.exp 0);
  Alcotest.check Alcotest.int "exp 1 is generator" 2 (F.exp 1);
  Alcotest.check Alcotest.int "log generator" 1 (F.log 2);
  Alcotest.check Alcotest.int "full cycle" 1 (F.exp 65535);
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (F.inv 0));
  Alcotest.check_raises "div by 0" Division_by_zero (fun () -> ignore (F.div 1 0));
  Alcotest.check_raises "out of range" (Invalid_argument "Gf65536: out of range")
    (fun () -> ignore (F.add 0x10000 1))

let test_pow () =
  Alcotest.check Alcotest.int "pow 0 0" 1 (F.pow 0 0);
  Alcotest.check Alcotest.int "pow 0 5" 0 (F.pow 0 5);
  Alcotest.check Alcotest.int "pow x 1" 0x1234 (F.pow 0x1234 1);
  Alcotest.check Alcotest.int "pow via mul" (F.mul 7 (F.mul 7 7)) (F.pow 7 3)

(* Every table cell against the reference: exp i = 2^i by repeated doubling
   over the whole cycle, log inverts it on every non-zero element, and one
   product per element reaches each cell of exp's doubled half. *)
let test_tables_match_reference () =
  let x = ref 1 in
  for i = 0 to 65534 do
    if F.exp i <> !x then Alcotest.failf "exp %d = %d, want %d" i (F.exp i) !x;
    x := ref_mul !x 2
  done;
  Alcotest.check Alcotest.int "2^65535 = 1" 1 !x;
  let top = F.exp 65534 in
  for x = 1 to 0xffff do
    if F.exp (F.log x) <> x then Alcotest.failf "exp (log %d) <> %d" x x;
    if F.mul x top <> ref_mul x top then Alcotest.failf "mul %d 2^65534" x
  done;
  (* log top + 65535 - log 1: exp's last cell. *)
  Alcotest.check Alcotest.int "last cell" top (F.div top 1)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:500 gen f)

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "pow" `Quick test_pow;
    prop "mul commutative" (QCheck.pair arb_elt arb_elt) (fun (a, b) ->
        F.mul a b = F.mul b a);
    prop "mul associative" (QCheck.triple arb_elt arb_elt arb_elt) (fun (a, b, c) ->
        F.mul a (F.mul b c) = F.mul (F.mul a b) c);
    prop "distributive" (QCheck.triple arb_elt arb_elt arb_elt) (fun (a, b, c) ->
        F.mul a (F.add b c) = F.add (F.mul a b) (F.mul a c));
    prop "inverse" arb_nonzero (fun a -> ref_mul a (F.inv a) = F.one);
    prop "div inverts mul" (QCheck.pair arb_elt arb_nonzero) (fun (a, b) ->
        F.div (F.mul a b) b = a);
    prop "exp/log roundtrip" arb_nonzero (fun a -> F.exp (F.log a) = a);
    prop "add is involution" (QCheck.pair arb_elt arb_elt) (fun (a, b) ->
        F.add (F.add a b) b = a);
    prop "mul = shift-and-xor reference" (QCheck.pair arb_elt arb_elt) (fun (a, b) ->
        F.mul a b = ref_mul a b);
    prop "dot = sum of muls"
      (QCheck.pair (QCheck.list_of_size QCheck.Gen.(1 -- 8) arb_elt) arb_elt)
      (fun (coeffs, y0) ->
        let k = List.length coeffs in
        let coeffs = Array.of_list coeffs in
        let ys = Array.init k (fun j -> (y0 + (j * 257)) land 0xffff) in
        let coeff_logs =
          Array.map (fun c -> if c = 0 then -1 else F.log c) coeffs
        in
        let expected =
          let acc = ref 0 in
          Array.iteri (fun j c -> acc := !acc lxor ref_mul c ys.(j)) coeffs;
          !acc
        in
        let ylogs = Array.map F.log_unsafe ys in
        F.dot ~coeff_logs ~pos:0 ~ylogs ~k = expected);
    prop "log_unsafe = log, -1 at zero" arb_elt (fun a ->
        F.log_unsafe a = if a = 0 then -1 else F.log a);
    Alcotest.test_case "tables = shift-and-xor reference" `Quick
      test_tables_match_reference;
  ]
