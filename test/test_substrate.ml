(* Substrate conformance: the contract of the Pi_BA seam (Ba.Substrate.S),
   checked once as a functor over a backend and instantiated per backend.
   Every run is a fresh random draw of n, t <= max_t, the corrupt set, the
   adversary and the inputs, and each one checks:
   - Definition 2 on [run_bytes]: termination (every honest party outputs),
     agreement, and validity under honest unanimity;
   - Lemma 2 on [run_bit]: the common output is some honest party's input;
   - [run_option] with ⊥ mixed into the inputs: agreement, and unanimity on
     ⊥ or on a value is kept;
   - [rounds ctx] equals the measured round count exactly.
   The adversaries are every generic one in [Attacks.registry] and
   [Attacks.backref_abuser] (phase king's back-references), and for an
   [`Authenticated] backend also [forged_signatures]; a deterministic sweep
   runs each of them once per n at t = max_t. *)

open Net

(* A backend under test. [fresh ~n ~t] prepares one run (an authenticated
   backend draws its setup there: XMSS signers are stateful) and returns
   what each party calls inside its protocol closure to get its substrate. *)
module type BACKEND = sig
  val label : string
  val ns : int list
  val fresh : n:int -> t:int -> unit -> (module Ba.Substrate.S)
end

(* Offsets of every embedded XMSS signature in [m]: a length prefix followed
   by that many bytes that [Sigs.Xmss.decode_signature] accepts. *)
let signature_spans m =
  let len = String.length m in
  let rec varint i shift acc =
    if i >= len || shift > 28 then None
    else
      let b = Char.code m.[i] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b < 0x80 then Some (acc, i + 1) else varint (i + 1) (shift + 7) acc
  in
  let rec scan i spans =
    if i >= len then List.rev spans
    else
      match varint i 0 0 with
      | Some (l, start)
        when l >= Sigs.Lamport.signature_bytes
             && l <= Sigs.Xmss.signature_bytes
             && start + l <= len
             && Option.is_some (Sigs.Xmss.decode_signature (String.sub m start l)) ->
          scan (start + l) ((start, l) :: spans)
      | _ -> scan (i + 1) spans
  in
  scan 0 []

(* Every occurrence in [m] of a value of [values] (all of one length)
   replaced by the next one in the list, cyclically. *)
let rotate_values values m =
  match values with
  | [] -> m
  | v0 :: _ ->
      let k = String.length v0 and b = Bytes.of_string m in
      let next v =
        let rec go = function
          | x :: (y :: _ as rest) -> if String.equal x v then Some y else go rest
          | [ x ] -> if String.equal x v then Some v0 else None
          | [] -> None
        in
        go values
      in
      let i = ref 0 in
      while !i + k <= String.length m do
        match next (String.sub m !i k) with
        | Some w ->
            Bytes.blit_string w 0 b !i k;
            i := !i + k
        | None -> incr i
      done;
      Bytes.unsafe_to_string b

(* Forgeries: toward even recipients, a corrupt sender's prescribed message
   with the last byte of every embedded signature flipped, so the message
   still decodes and every signature parses but none verifies; toward odd
   recipients, the same message with each of [values] (the run's inputs,
   all of one length) replaced by the next, under the untouched
   signatures. *)
let forged_signatures ~values =
  Adversary.make ~name:"forged-signatures" (fun view ~sender ~recipient ->
      match Adversary.prescribed_msg view ~sender ~recipient with
      | Some m when recipient land 1 = 0 ->
          let b = Bytes.of_string m in
          List.iter
            (fun (start, l) ->
              let i = start + l - 1 in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a)))
            (signature_spans m);
          Some (Bytes.unsafe_to_string b)
      | Some m -> Some (rotate_values values m)
      | None -> None)

(* The scan finds each link of a Dolev-Strong chain, so the forgery reaches
   every signature a corrupt sender relays. *)
let test_signature_spans () =
  let signer, _ = Sigs.Xmss.generate (Prng.create 3) ~capacity:4 in
  let chain = List.init 3 (fun i -> (i, Sigs.Xmss.sign signer (string_of_int i))) in
  let batch = Auth.Dolev_strong.encode_batch [ ("value", chain) ] in
  Alcotest.(check int) "spans" 3 (List.length (signature_spans batch))

module Conform (X : BACKEND) = struct
  let assumption, max_t =
    let module B = (val X.fresh ~n:4 ~t:0 ()) in
    (B.assumption, B.max_t)

  (* Fresh per run: the generic strategies carry PRNG and replay state.
     [values] are the run's possible inputs as the forger finds them in a
     message. *)
  let adversaries ~seed ~values =
    Attacks.(instantiate ~seed ~payload:"" generic)
    @ [ Attacks.backref_abuser ]
    @ if assumption = `Authenticated then [ forged_signatures ~values ] else []

  (* One run of [entry] at (n, t) on [inputs]: the honest outputs (raises if
     one did not terminate) and whether the measured rounds equal
     [rounds ctx]. *)
  let run ~n ~t ~corrupt ~adversary entry inputs =
    let make = X.fresh ~n ~t in
    let expected = ref 0 in
    let outcome =
      Sim.run ~setup:assumption ~n ~t ~corrupt ~adversary (fun ctx ->
          let module B = (val make ()) in
          expected := B.rounds ctx;
          entry (module B : Ba.Substrate.S) ctx inputs.(ctx.Ctx.me))
    in
    (Sim.honest_outputs ~corrupt outcome, outcome.Sim.metrics.Metrics.rounds = !expected)

  let honest ~corrupt inputs =
    List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)

  let agreed equal = function
    | [] -> None
    | v :: rest -> if List.for_all (equal v) rest then Some v else None

  (* Definition 2 (and the round count) for one run of an entry point. *)
  let definition2 equal ~corrupt inputs (outputs, rounds_exact) =
    rounds_exact
    &&
    match agreed equal outputs with
    | None -> false
    | Some out -> (
        match agreed equal (honest ~corrupt inputs) with
        | Some v -> equal v out
        | None -> true)

  (* A random scenario from [seed]: n, t <= max_t, at most t corrupt parties
     and one adversary. *)
  let scenario ~values seed =
    let rng = Prng.create seed in
    let n = List.nth X.ns (Prng.int rng (List.length X.ns)) in
    let t = Prng.int rng (max_t ~n + 1) in
    let corrupt = Array.make n false in
    for _ = 1 to Prng.int rng (t + 1) do
      corrupt.(Prng.int rng n) <- true
    done;
    let pool = adversaries ~seed ~values in
    let adversary = List.nth pool (Prng.int rng (List.length pool)) in
    (rng, n, t, corrupt, adversary)

  let bytes_entry (module B : Ba.Substrate.S) ctx v = B.run_bytes ctx v
  let bit_entry (module B : Ba.Substrate.S) ctx v = B.run_bit ctx v
  let option_entry (module B : Ba.Substrate.S) ctx v = B.run_option ctx v

  (* Half the draws are honest-unanimous, so validity is exercised; corrupt
     parties draw their own inputs either way. *)
  let draw rng ~corrupt pick =
    if Prng.bool rng then
      let v = pick () in
      Array.map (fun c -> if c then pick () else v) corrupt
    else Array.map (fun _ -> pick ()) corrupt

  let prop_bytes =
    QCheck.Test.make ~name:(X.label ^ ": Definition 2 on run_bytes") ~count:12
      QCheck.(int_bound 100_000)
      (fun seed ->
        let rng, n, t, corrupt, adversary = scenario ~values:[ "v0"; "v1"; "v2" ] seed in
        let inputs = draw rng ~corrupt (fun () -> Printf.sprintf "v%d" (Prng.int rng 3)) in
        definition2 String.equal ~corrupt inputs
          (run ~n ~t ~corrupt ~adversary bytes_entry inputs))

  let prop_bit =
    QCheck.Test.make ~name:(X.label ^ ": Lemma 2 on run_bit") ~count:12
      QCheck.(int_bound 100_000)
      (fun seed ->
        (* A one-byte value is everywhere in a message: forge signatures only. *)
        let rng, n, t, corrupt, adversary = scenario ~values:[] seed in
        let inputs = draw rng ~corrupt (fun () -> Prng.bool rng) in
        let ((outputs, _) as result) = run ~n ~t ~corrupt ~adversary bit_entry inputs in
        definition2 Bool.equal ~corrupt inputs result
        && List.mem (List.hd outputs) (honest ~corrupt inputs))

  let prop_option =
    QCheck.Test.make ~name:(X.label ^ ": run_option with ⊥ inputs") ~count:12
      QCheck.(int_bound 100_000)
      (fun seed ->
        let rng, n, t, corrupt, adversary = scenario ~values:[ "x1"; "x2" ] seed in
        let inputs =
          draw rng ~corrupt (fun () ->
              match Prng.int rng 3 with 0 -> None | k -> Some (Printf.sprintf "x%d" k))
        in
        definition2 (Option.equal String.equal) ~corrupt inputs
          (run ~n ~t ~corrupt ~adversary option_entry inputs))

  (* Every adversary once per n, at t = max_t with the last t parties
     corrupt, on split inputs and on honest-unanimous ones that the corrupt
     parties' inputs sort below. *)
  let test_every_adversary () =
    let values = [ "s0"; "s1"; "su"; "sa" ] in
    List.iter
      (fun n ->
        let t = max_t ~n in
        let corrupt = Array.init n (fun i -> i >= n - t) in
        List.iteri
          (fun k _ ->
            List.iter
              (fun inputs ->
                let adversary = List.nth (adversaries ~seed:k ~values) k in
                Alcotest.(check bool)
                  (Printf.sprintf "n=%d t=%d vs %s on [%s]" n t adversary.Adversary.name
                     (String.concat ";" (Array.to_list inputs)))
                  true
                  (definition2 String.equal ~corrupt inputs
                     (run ~n ~t ~corrupt ~adversary bytes_entry inputs)))
              [
                Array.init n (fun i -> Printf.sprintf "s%d" (i mod 2));
                Array.map (fun c -> if c then "sa" else "su") corrupt;
              ])
          (adversaries ~seed:0 ~values))
      X.ns

  let suite =
    [
      QCheck_alcotest.to_alcotest prop_bytes;
      QCheck_alcotest.to_alcotest prop_bit;
      QCheck_alcotest.to_alcotest prop_option;
      Alcotest.test_case (X.label ^ ": every adversary at max_t") `Quick
        test_every_adversary;
    ]
end

module Plain_suite = Conform (struct
  let label = "phase-king"
  let ns = [ 4; 7 ]
  let fresh ~n:_ ~t:_ () = (module Ba.Substrate.Unauthenticated : Ba.Substrate.S)
end)

module Auth_suite = Conform (struct
  let label = "auth_ba"
  let ns = [ 4; 5; 7 ]

  let fresh ~n ~t =
    let setup =
      Auth.Setup.generate ~seed:(n + (100 * t)) ~n
        ~capacity:(Auth.Auth_ba.required_capacity ~n ~instances:1)
    in
    fun () -> Auth.Auth_ba.substrate setup
end)

let suite =
  Alcotest.test_case "forged-signatures finds every signature" `Quick test_signature_spans
  :: (Plain_suite.suite @ Auth_suite.suite)
