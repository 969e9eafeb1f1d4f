(* Simulator semantics: lock-step delivery, authentication, metrics,
   adversary overrides, label attribution, round limits. *)

open Net

let ( let* ) = Proto.( let* )

(* Each party broadcasts its id, then returns the set of senders heard. *)
let roll_call (_ctx : Ctx.t) =
  Proto.run
    (let* inbox = Proto.broadcast "here" in
     let heard = ref [] in
     Array.iteri (fun s m -> if m <> None then heard := s :: !heard) inbox;
     Proto.return (List.rev !heard))

let test_all_honest_delivery () =
  let n = 5 in
  let outcome =
    Sim.run ~n ~t:1
      ~corrupt:(Array.make n false)
      ~adversary:Adversary.passive roll_call
  in
  Alcotest.check Alcotest.int "one round" 1 outcome.Sim.metrics.Metrics.rounds;
  Array.iter
    (function
      | Some heard -> Alcotest.check (Alcotest.list Alcotest.int) "hears all" [ 0; 1; 2; 3; 4 ] heard
      | None -> Alcotest.fail "party did not finish")
    outcome.Sim.outputs;
  (* 5 parties x 4 non-self recipients x 4-byte message. *)
  Alcotest.check Alcotest.int "bits" (5 * 4 * 8 * 4) outcome.Sim.metrics.Metrics.honest_bits;
  Alcotest.check Alcotest.int "msgs" 20 outcome.Sim.metrics.Metrics.honest_msgs

let test_silent_adversary () =
  let n = 4 in
  let corrupt = Sim.corrupt_first ~n 1 in
  let outcome = Sim.run ~n ~t:1 ~corrupt ~adversary:Adversary.silent roll_call in
  List.iter
    (fun heard ->
      Alcotest.check (Alcotest.list Alcotest.int) "corrupt silent" [ 1; 2; 3 ] heard)
    (Sim.honest_outputs ~corrupt outcome);
  Alcotest.check Alcotest.int "no byz traffic" 0 outcome.Sim.metrics.Metrics.byz_bits

let test_byzantine_bits_not_counted () =
  let n = 4 in
  let corrupt = Sim.corrupt_first ~n 1 in
  let outcome =
    Sim.run ~n ~t:1 ~corrupt ~adversary:(Adversary.spammer ~seed:7 ~max_len:32) roll_call
  in
  (* Honest bits: 3 honest x 3 non-self x 4 bytes. *)
  Alcotest.check Alcotest.int "honest bits" (3 * 3 * 8 * 4)
    outcome.Sim.metrics.Metrics.honest_bits;
  Alcotest.check Alcotest.bool "byz bits counted separately" true
    (outcome.Sim.metrics.Metrics.byz_bits > 0)

(* Two sequenced rounds; party 0 sends a different value per recipient. *)
let two_rounds (ctx : Ctx.t) =
  Proto.run
    (let* first =
       Proto.exchange (fun r ->
           if ctx.Ctx.me = 0 then Some (Printf.sprintf "to-%d" r) else None)
     in
     let mine = first.(0) in
     let* _ = Proto.receive_only () in
     Proto.return mine)

let test_per_recipient_messages () =
  let n = 3 in
  let outcome =
    Sim.run ~n ~t:0 ~corrupt:(Array.make n false) ~adversary:Adversary.passive
      two_rounds
  in
  Alcotest.check Alcotest.int "two rounds" 2 outcome.Sim.metrics.Metrics.rounds;
  Array.iteri
    (fun i o ->
      Alcotest.check
        (Alcotest.option (Alcotest.option Alcotest.string))
        (Printf.sprintf "party %d" i)
        (Some (Some (Printf.sprintf "to-%d" i)))
        o)
    outcome.Sim.outputs

let test_labels () =
  let labelled (_ctx : Ctx.t) =
    let* _ = Proto.with_label "phase-a" (Proto.broadcast "aaaa") in
    let* _ = Proto.with_label "phase-b" (Proto.broadcast "bb") in
    let* _ = Proto.broadcast "c" in
    Proto.return ()
  in
  let n = 3 in
  let outcome =
    Sim.run ~n ~t:0 ~corrupt:(Array.make n false) ~adversary:Adversary.passive
      (fun ctx -> Proto.run (labelled ctx))
  in
  let find l = List.assoc_opt l (Metrics.labels outcome.Sim.metrics) in
  Alcotest.check (Alcotest.option Alcotest.int) "phase-a" (Some (3 * 2 * 8 * 4)) (find "phase-a");
  Alcotest.check (Alcotest.option Alcotest.int) "phase-b" (Some (3 * 2 * 8 * 2)) (find "phase-b");
  Alcotest.check (Alcotest.option Alcotest.int) "unlabeled" (Some (3 * 2 * 8 * 1))
    (find "(unlabeled)")

let test_nested_labels () =
  let nested (_ctx : Ctx.t) =
    Proto.with_label "outer"
      (let* _ = Proto.broadcast "x" in
       let* _ = Proto.with_label "inner" (Proto.broadcast "y") in
       let* _ = Proto.broadcast "z" in
       Proto.return ())
  in
  let outcome =
    Sim.run ~n:2 ~t:0 ~corrupt:[| false; false |] ~adversary:Adversary.passive
      (fun ctx -> Proto.run (nested ctx))
  in
  let find l = List.assoc_opt l (Metrics.labels outcome.Sim.metrics) in
  (* outer gets rounds 1 and 3 (2 parties x 1 recipient x 1 byte each). *)
  Alcotest.check (Alcotest.option Alcotest.int) "outer" (Some 32) (find "outer");
  Alcotest.check (Alcotest.option Alcotest.int) "inner" (Some 16) (find "inner")

let test_round_limit () =
  let rec forever (ctx : Ctx.t) =
    let* _ = Proto.broadcast "spin" in
    forever ctx
  in
  Alcotest.check_raises "limit" (Sim.Round_limit_exceeded 10) (fun () ->
      ignore
        (Sim.run ~max_rounds:10 ~n:2 ~t:0 ~corrupt:[| false; false |]
           ~adversary:Adversary.passive (fun ctx -> Proto.run (forever ctx))))

let test_early_termination_mix () =
  (* Party 0 finishes after one round; party 1 after two. The simulator must
     keep running until all honest parties are done, with party 0 silent. *)
  let staggered (ctx : Ctx.t) =
    let* first = Proto.broadcast "hello" in
    if ctx.Ctx.me = 0 then Proto.return (Array.length first)
    else
      let* second = Proto.receive_only () in
      (* Party 0 already terminated: its slot must be empty. *)
      Proto.return (match second.(0) with None -> 0 | Some _ -> 99)
  in
  let outcome =
    Sim.run ~n:2 ~t:0 ~corrupt:[| false; false |] ~adversary:Adversary.passive
      (fun ctx -> Proto.run (staggered ctx))
  in
  Alcotest.check Alcotest.int "rounds" 2 outcome.Sim.metrics.Metrics.rounds;
  Alcotest.check (Alcotest.option Alcotest.int) "late party saw silence" (Some 0)
    outcome.Sim.outputs.(1)

let test_corruption_bound_enforced () =
  Alcotest.check_raises "too many corrupt" (Invalid_argument "Sim.run: more corruptions than t")
    (fun () ->
      ignore
        (Sim.run ~n:4 ~t:1 ~corrupt:[| true; true; false; false |]
           ~adversary:Adversary.silent roll_call));
  Alcotest.check_raises "ctx validates resilience"
    (Invalid_argument "Ctx.make: requires t < n/3") (fun () ->
      ignore (Ctx.make ~n:3 ~t:1 ~me:0))

let test_metrics_labels_deterministic () =
  (* Ties in the per-label bit counts break by label, ascending — the order
     never depends on hash-table iteration or on the order labels were
     first used. *)
  let labelled (_ctx : Ctx.t) =
    let* _ = Proto.with_label "zeta" (Proto.broadcast "zzzz") in
    let* _ = Proto.with_label "alpha" (Proto.broadcast "aaaa") in
    let* _ = Proto.with_label "mid" (Proto.broadcast "mmmm") in
    let* _ = Proto.with_label "big" (Proto.broadcast "bbbbbbbbb") in
    Proto.return ()
  in
  let outcome =
    Sim.run ~n:2 ~t:0 ~corrupt:[| false; false |] ~adversary:Adversary.passive
      (fun ctx -> Proto.run (labelled ctx))
  in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "bits desc, then label asc"
    [ ("big", 144); ("alpha", 64); ("mid", 64); ("zeta", 64) ]
    (Metrics.labels outcome.Sim.metrics)

(* A running sub-protocol's rounds must not pass through the [let*] and
   [with_label] layers around it. A three-round phase runs [reps] times
   inside [depth] such layers under [Sim.run]; the per-party-round slope,
   (words at 2·reps − words at reps) / (n · 3·reps), cancels each layer's
   one-off cost. Both depths read 47.7 words per party-round; with
   [with_label] re-wrapping each round as a free-monad bind does, depth 16
   read 335.7 against depth 1's 65.7 (18 words per layer per round). The
   bound is 4. *)
let test_nesting_depth_allocation () =
  let n = 4 and reps = 20 in
  let protocol ~depth ~reps (_ctx : Ctx.t) =
    let rec phases i =
      if i = 0 then Proto.return 0
      else
        let* _ = Proto.broadcast "a" in
        let* _ = Proto.receive_only () in
        let* _ = Proto.broadcast "b" in
        phases (i - 1)
    in
    let rec wrap d =
      if d = 0 then phases reps
      else
        let* x = Proto.with_label "layer" (wrap (d - 1)) in
        Proto.return (x + 1)
    in
    Proto.run (wrap depth)
  in
  let words ~depth ~reps =
    let w0 = Gc.minor_words () in
    ignore
      (Sim.run ~n ~t:0 ~corrupt:(Array.make n false) ~adversary:Adversary.passive
         (protocol ~depth ~reps));
    Gc.minor_words () -. w0
  in
  let per_party_round depth =
    (words ~depth ~reps:(2 * reps) -. words ~depth ~reps)
    /. float_of_int (n * 3 * reps)
  in
  let shallow = per_party_round 1 and deep = per_party_round 16 in
  Alcotest.(check bool)
    (Printf.sprintf "depth 16 %.1f vs depth 1 %.1f words per party-round" deep shallow)
    true
    (Float.abs (deep -. shallow) <= 4.)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs g = List.init 20 (fun _ -> Prng.int g 1000) in
  Alcotest.check (Alcotest.list Alcotest.int) "same seed same stream" (xs a) (xs b);
  let c = Prng.create 43 in
  Alcotest.check Alcotest.bool "different seed differs" true (xs (Prng.create 42) <> xs c);
  Alcotest.check Alcotest.int "bytes length" 17 (String.length (Prng.bytes a 17))

(* SHA-256 of 1 000 draws (ints with a wide and a narrow bound, bools),
   captured before the state moved from a boxed [int64] field to bytes: the
   stream must not change with its representation. *)
let prng_stream_digest g =
  let buf = Buffer.create 16384 in
  for i = 0 to 999 do
    let v =
      match i mod 3 with
      | 0 -> Prng.int g max_int
      | 1 -> Prng.int g (i + 1)
      | _ -> if Prng.bool g then 1 else 0
    in
    Buffer.add_string buf (string_of_int v);
    Buffer.add_char buf ','
  done;
  Sha256.to_hex (Sha256.digest (Buffer.contents buf))

let test_prng_stream_pin () =
  List.iter
    (fun (name, g, expected) ->
      Alcotest.check Alcotest.string name expected (prng_stream_digest g))
    [
      ( "create 1",
        Prng.create 1,
        "d46ed18ef20331b8c446bce0466ae6abf1c53b1199dc8891f05e9aaa32d8051f" );
      ( "create (-7)",
        Prng.create (-7),
        "ac9c41ee33daef574324c6ec259fe250784b7a5def7cb818d972cb397c74280b" );
      ( "split (create 5) ~salt:3",
        Prng.split (Prng.create 5) ~salt:3,
        "4c253d73756278ac5b90e31829b6a07ef603a19d29f13e0c8dce4aaf2d3f2372" );
    ]

(* [bytes] draws byte i as [int g 256] of the i-th draw, and a [copy]
   draws what its original draws next. *)
let test_prng_bytes_reference () =
  List.iter
    (fun seed ->
      let g = Prng.create seed and reference = Prng.create seed in
      ignore (Prng.int g 5, Prng.int reference 5);
      let again = Prng.copy g in
      let got = Prng.bytes g 100 in
      Alcotest.(check string)
        (Printf.sprintf "seed %d" seed)
        (String.init 100 (fun _ -> Char.chr (Prng.int reference 256)))
        got;
      Alcotest.(check string) "copy replays" got (Prng.bytes again 100))
    [ 1; -7; 424242 ]

let test_prng_allocation () =
  let g = Prng.create 11 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    acc := !acc + Prng.int g i + if Prng.bool g then 1 else 0
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check (float 0.)) "minor words for 2 000 draws" 0. words

let suite =
  [
    Alcotest.test_case "all-honest delivery" `Quick test_all_honest_delivery;
    Alcotest.test_case "silent adversary" `Quick test_silent_adversary;
    Alcotest.test_case "byzantine bits separate" `Quick test_byzantine_bits_not_counted;
    Alcotest.test_case "per-recipient messages" `Quick test_per_recipient_messages;
    Alcotest.test_case "labels" `Quick test_labels;
    Alcotest.test_case "nested labels" `Quick test_nested_labels;
    Alcotest.test_case "round limit" `Quick test_round_limit;
    Alcotest.test_case "staggered termination" `Quick test_early_termination_mix;
    Alcotest.test_case "corruption bound" `Quick test_corruption_bound_enforced;
    Alcotest.test_case "metrics labels deterministic" `Quick
      test_metrics_labels_deterministic;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng stream pin" `Quick test_prng_stream_pin;
    Alcotest.test_case "prng bytes = int 256 per byte" `Quick test_prng_bytes_reference;
    Alcotest.test_case "prng draws allocate nothing" `Quick test_prng_allocation;
    Alcotest.test_case "nesting depth adds no per-round allocation" `Quick
      test_nesting_depth_allocation;
  ]
