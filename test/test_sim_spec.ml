(* Differential pin: [Net.Sim.run] against the frozen reference executor in
   sim_spec.ml. Over Π_ℤ, Π_ℕ, phase-king and the adaptive wrapper, under the
   passive, equivocating and crashing adversaries with random corruption sets
   and seeds, both executors must produce the same outputs, the same
   [Metrics] (rounds, honest/byzantine bits and messages, per-label bits), the
   same trace CSV and the same obs span, probe and total records. The obs
   timeline ("round" records) is excluded: it is the one stamp the
   reference files under a different round convention (see sim_spec.ml).
   So are the loop's instruments, which the reference does not keep.
   Plus the edges: the [max_rounds] boundary, [allow_excess_corruptions] and
   byzantine truncation at [Sim.max_byzantine_bytes]. *)

open Net

type observed = {
  outputs : string option list;
  counters : int * int * int * int * int;
  labels : (string * int) list;
  csv : string;
  spans : string list;
}

(* The span, probe and total records of an export. *)
let span_records jsonl =
  List.filter
    (fun line ->
      List.exists
        (fun kind -> String.starts_with ~prefix:(Printf.sprintf {|{"kind":"%s",|} kind) line)
        [ "span"; "probe"; "total" ])
    (String.split_on_char '\n' jsonl)

let observe render (o : _ Sim.outcome) ~csv ~obs =
  let m = o.Sim.metrics in
  {
    outputs = Array.to_list (Array.map (Option.map render) o.Sim.outputs);
    counters =
      ( m.Metrics.rounds,
        m.Metrics.honest_bits,
        m.Metrics.honest_msgs,
        m.Metrics.byz_bits,
        m.Metrics.byz_msgs );
    labels = Metrics.labels m;
    csv;
    spans = span_records (Obs.to_jsonl obs);
  }

let check_same name a b =
  Alcotest.(check (list (option string))) (name ^ ": outputs") a.outputs b.outputs;
  let c (r, hb, hm, bb, bm) = [ r; hb; hm; bb; bm ] in
  Alcotest.(check (list int))
    (name ^ ": rounds, honest bits/msgs, byz bits/msgs")
    (c a.counters) (c b.counters);
  Alcotest.(check (list (pair string int))) (name ^ ": labels") a.labels b.labels;
  Alcotest.(check string) (name ^ ": trace CSV") a.csv b.csv;
  Alcotest.(check (list string)) (name ^ ": obs spans/probes") a.spans b.spans

(* Run one scenario through both executors; adversaries are built fresh per
   run (strategies carry PRNG state). *)
let differential ?max_rounds ?allow_excess_corruptions name ~n ~t ~corrupt
    ~mk_adversary render protocol =
  let spec =
    let trace = Sim_spec.trace () and obs = Obs.create () in
    let o =
      Sim_spec.run ?max_rounds ?allow_excess_corruptions ~trace ~obs ~n ~t
        ~corrupt ~adversary:(mk_adversary ()) protocol
    in
    observe render o ~csv:(Sim_spec.to_csv trace) ~obs
  in
  let sim =
    let obs = Obs.create ~messages:true () in
    let o =
      Sim.run ?max_rounds ?allow_excess_corruptions ~obs ~n ~t ~corrupt
        ~adversary:(mk_adversary ()) protocol
    in
    observe render o ~csv:(Obs.messages_csv obs) ~obs
  in
  check_same name spec sim;
  spec

(* ---- the qcheck sweep ---------------------------------------------------- *)

let protocols =
  [|
    ( "pi_z",
      fun rng ~n ->
        let inputs =
          Array.map
            (fun v -> if Prng.bool rng then Bigint.neg v else v)
            (Workload.clustered_bits rng ~n ~bits:24 ~shared_prefix_bits:8)
        in
        fun ctx ->
          Proto.run
            (Proto.map (Proto.lift (Convex.agree_int ctx inputs.(ctx.Ctx.me))) Bigint.to_hex) );
    ( "pi_n",
      fun rng ~n ->
        let inputs = Workload.uniform_bits rng ~n ~bits:20 in
        fun ctx ->
          Proto.run (Proto.map (Convex.agree_nat ctx inputs.(ctx.Ctx.me)) Bigint.to_hex) );
    ( "phase_king",
      fun rng ~n ->
        let inputs =
          Array.init n (fun _ -> if Prng.bool rng then "alpha" else "beta")
        in
        fun ctx -> Proto.run (Ba.Phase_king.run_bytes ctx inputs.(ctx.Ctx.me)) );
    ( "adaptive",
      fun rng ~n ->
        let inputs = Workload.clustered_bits rng ~n ~bits:24 ~shared_prefix_bits:12 in
        let p = Workload.pi_z_adaptive () in
        fun ctx ->
          Proto.run
            (Proto.map (Proto.lift (p.Workload.run ctx inputs.(ctx.Ctx.me))) Bigint.to_hex) );
  |]

let adversaries =
  [|
    ("passive", fun _seed () -> Adversary.passive);
    ("equivocate", fun seed () -> Adversary.equivocate ~seed);
    ("crash", fun seed () -> Adversary.crash ~after:(1 + (seed mod 7)));
  |]

let prop_sim_equals_spec =
  QCheck.Test.make ~name:"Sim.run = reference spec (protocols x adversaries)"
    ~count:60
    QCheck.(
      quad (int_bound (Array.length protocols - 1))
        (int_bound (Array.length adversaries - 1))
        (int_bound 2) (int_bound 100_000))
    (fun (pi, ai, ni, seed) ->
      let n = [| 4; 5; 7 |].(ni) in
      let t = (n - 1) / 3 in
      let rng = Prng.create seed in
      (* A random corruption set of size 0..t. *)
      let corrupt = Array.make n false in
      for _ = 1 to Prng.int rng (t + 1) do
        corrupt.(Prng.int rng n) <- true
      done;
      let pname, mk_protocol = protocols.(pi) in
      let aname, mk_adversary = adversaries.(ai) in
      let protocol = mk_protocol rng ~n in
      ignore
        (differential
           (Printf.sprintf "%s/%s n=%d seed=%d" pname aname n seed)
           ~n ~t ~corrupt ~mk_adversary:(mk_adversary seed) Fun.id protocol);
      true)

(* ---- edges --------------------------------------------------------------- *)

(* A fixed-length protocol: [rounds] broadcasts, then the count heard. *)
let rounds_protocol rounds (ctx : Ctx.t) =
  let ( let* ) = Proto.( let* ) in
  let rec go k acc =
    if k = 0 then Proto.return acc
    else
      let* inbox = Proto.broadcast (Printf.sprintf "%d:%d" ctx.Ctx.me k) in
      go (k - 1) (Array.fold_left (fun a m -> if m = None then a else a + 1) acc inbox)
  in
  Proto.run (go rounds 0)

let test_max_rounds_boundary () =
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n 1 in
  let mk_adversary () = Adversary.equivocate ~seed:3 in
  List.iter
    (fun rounds ->
      let exact =
        differential
          (Printf.sprintf "%d rounds at max_rounds=%d" rounds rounds)
          ~max_rounds:rounds ~n ~t ~corrupt ~mk_adversary string_of_int
          (rounds_protocol rounds)
      in
      let r, _, _, _, _ = exact.counters in
      Alcotest.(check int) "ran every round" rounds r;
      let limit = rounds - 1 in
      Alcotest.check_raises "reference: one round short raises"
        (Sim_spec.Round_limit_exceeded limit) (fun () ->
          ignore
            (Sim_spec.run ~max_rounds:limit ~n ~t ~corrupt
               ~adversary:(mk_adversary ()) (rounds_protocol rounds)));
      Alcotest.check_raises "Sim.run: one round short raises"
        (Sim.Round_limit_exceeded limit) (fun () ->
          ignore
            (Sim.run ~max_rounds:limit ~n ~t ~corrupt ~adversary:(mk_adversary ())
               (rounds_protocol rounds))))
    [ 1; 2; 17 ]

let test_allow_excess_corruptions () =
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n 2 in
  let inputs = Array.init n (fun i -> Bigint.of_int (100 + i)) in
  let protocol ctx = Convex.agree_int ctx inputs.(ctx.Ctx.me) in
  Alcotest.(check bool) "rejected without the flag" true
    (match
       Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive protocol
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  ignore
    (differential "t+1 corruptions" ~allow_excess_corruptions:true ~n ~t ~corrupt
       ~mk_adversary:(fun () -> Adversary.equivocate ~seed:9)
       Bigint.to_hex protocol)

let test_byzantine_truncation () =
  let huge () =
    Adversary.make ~name:"huge" (fun view ~sender ~recipient ->
        if (sender + recipient + view.Adversary.round) mod 2 = 0 then
          Some (String.make (Sim.max_byzantine_bytes + 4096) 'X')
        else Some "short")
  in
  let n = 4 and t = 1 in
  let corrupt = Sim.corrupt_first ~n 1 in
  let o =
    differential "oversize byzantine messages" ~n ~t ~corrupt ~mk_adversary:huge
      string_of_int (rounds_protocol 2)
  in
  let _, _, _, byz_bits, _ = o.counters in
  (* Sender 0 to recipients 1..3: oversize to 1 and 3 in round 1, to 2 in
     round 2; "short" otherwise. *)
  Alcotest.(check int) "byzantine bits counted at the truncated size"
    (8 * ((3 * Sim.max_byzantine_bytes) + (3 * String.length "short")))
    byz_bits

(* The rushing view is the prescribed round, whole, until the round's last
   [act] call: the last corrupt party forwards to every recipient what the
   first corrupt party's instance would send it, while the first garbles
   its own messages (one byte longer, so the two readings differ in bytes
   and bits). A loop that wrote an override into the round matrix before
   every [act] call had returned would hand the forwarder the garbled
   message. Sim.run (through [differential]) and the poll transport must
   both match the reference, which keeps the prescribed matrix apart from
   the overrides. *)
let forwarder ~corrupt () =
  let parties = List.filter (fun i -> corrupt.(i)) (List.init (Array.length corrupt) Fun.id) in
  let first = List.hd parties and last = List.nth parties (List.length parties - 1) in
  Adversary.make ~name:"forward" (fun view ~sender ~recipient ->
      let prescribed sender = Adversary.prescribed_msg view ~sender ~recipient in
      if sender = last then prescribed first
      else if sender = first then Option.map (fun m -> m ^ "\xff") (prescribed sender)
      else prescribed sender)

let test_rushing_view_is_prescribed () =
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs =
    Workload.clustered_bits (Prng.create 61) ~n ~bits:48 ~shared_prefix_bits:16
  in
  let protocol ctx = Convex.agree_int ctx inputs.(ctx.Ctx.me) in
  let spec =
    differential "forwarded prescribed cells" ~n ~t ~corrupt
      ~mk_adversary:(forwarder ~corrupt) Bigint.to_hex protocol
  in
  let _, _, _, byz_bits, _ = spec.counters in
  Alcotest.(check bool) "the garbling sender sent bytes" true (byz_bits > 0);
  (* The same session over the engine's loopback and its socket mesh. *)
  let observe engine =
    let obs = Obs.create () in
    let session = Engine.session ~sid:0 ~adversary:(forwarder ~corrupt ()) protocol in
    match (engine ~obs [ session ]).Engine.sessions with
    | [ r ] ->
        let m = r.Engine.r_metrics in
        ( Array.to_list (Array.map (Option.map Bigint.to_hex) r.Engine.r_outputs),
          [ m.Metrics.rounds; m.Metrics.honest_bits; m.Metrics.byz_bits ],
          Metrics.labels m,
          Obs.to_jsonl ~tier:Obs.Det obs )
    | _ -> Alcotest.fail "one session expected"
  in
  let sim_outputs, sim_counts, sim_labels, sim_det =
    observe (fun ~obs specs -> Engine.run_sim ~obs ~n ~t ~corrupt specs)
  in
  let outputs, counts, labels, det =
    observe (fun ~obs specs -> Engine.run_poll ~obs ~n ~t ~corrupt specs)
  in
  let r, hb, _, bb, _ = spec.counters in
  Alcotest.(check (list (option string))) "sim outputs = spec" spec.outputs sim_outputs;
  Alcotest.(check (list (option string))) "poll outputs = spec" spec.outputs outputs;
  Alcotest.(check (list int)) "poll rounds and bits = spec" [ r; hb; bb ] counts;
  Alcotest.(check (list int)) "poll rounds and bits = sim" sim_counts counts;
  Alcotest.(check (list (pair string int))) "poll label bits = spec" spec.labels labels;
  Alcotest.(check (list (pair string int))) "poll label bits = sim" sim_labels labels;
  Alcotest.(check string) "Det JSONL: poll = sim" sim_det det

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sim_equals_spec;
    Alcotest.test_case "rushing view: forwarded prescribed cells" `Quick
      test_rushing_view_is_prescribed;
    Alcotest.test_case "max_rounds boundary" `Quick test_max_rounds_boundary;
    Alcotest.test_case "allow_excess_corruptions" `Quick test_allow_excess_corruptions;
    Alcotest.test_case "byzantine truncation" `Quick test_byzantine_truncation;
  ]
