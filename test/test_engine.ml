(* Session-multiplexing engine: a multiplexed session must be bit-identical
   to the same session run alone under the reference executor (sim_spec.ml,
   independent of the engine's round loop) — outputs, per-session metrics,
   adversary interaction — and the poll backend must agree with the simulator
   session for session. *)

open Net

let bigint_t = Alcotest.testable Bigint.pp Bigint.equal

let check_session_equals_sequential ~n ~t ~corrupt ~mk_adversary ~mk_protocol
    (result : Bigint.t Engine.session_result) =
  let k = result.Engine.r_sid in
  let reference =
    Sim_spec.run ~n ~t ~corrupt ~adversary:(mk_adversary k) (mk_protocol k)
  in
  Alcotest.check
    (Alcotest.array (Alcotest.option bigint_t))
    (Printf.sprintf "session %d outputs" k)
    reference.Sim.outputs result.Engine.r_outputs;
  Alcotest.check Alcotest.int
    (Printf.sprintf "session %d honest bits" k)
    reference.Sim.metrics.Metrics.honest_bits
    result.Engine.r_metrics.Metrics.honest_bits;
  Alcotest.check Alcotest.int
    (Printf.sprintf "session %d byz bits" k)
    reference.Sim.metrics.Metrics.byz_bits result.Engine.r_metrics.Metrics.byz_bits;
  Alcotest.check Alcotest.int
    (Printf.sprintf "session %d rounds" k)
    reference.Sim.metrics.Metrics.rounds result.Engine.r_metrics.Metrics.rounds;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    (Printf.sprintf "session %d per-label bits" k)
    (Metrics.labels reference.Sim.metrics)
    (Metrics.labels result.Engine.r_metrics)

(* Session k: n clustered inputs drawn from a per-session PRNG. *)
let session_inputs ~n k =
  let rng = Prng.create (9000 + k) in
  Workload.clustered_bits rng ~n ~bits:64 ~shared_prefix_bits:32

let mk_protocol ~n k =
  let inputs = session_inputs ~n k in
  fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)

let mk_adversary k = Adversary.equivocate ~seed:(500 + k)

let test_multiplexed_equals_sequential () =
  let n = 7 and t = 2 and sessions = 8 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let specs =
    List.init sessions (fun k ->
        Engine.session ~sid:k ~adversary:(mk_adversary k) (mk_protocol ~n k))
  in
  let outcome = Engine.run_sim ~n ~t ~corrupt specs in
  Alcotest.check Alcotest.int "all sessions completed" sessions
    outcome.Engine.aggregate.Engine.sessions_completed;
  Alcotest.check Alcotest.int "peak live" sessions
    outcome.Engine.aggregate.Engine.peak_live;
  List.iter
    (check_session_equals_sequential ~n ~t ~corrupt ~mk_adversary
       ~mk_protocol:(mk_protocol ~n))
    outcome.Engine.sessions;
  (* 8 sessions share each pair's frame: the naive transport would have sent
     ~8x the frames. *)
  Alcotest.check Alcotest.bool "coalescing saves frames" true
    (outcome.Engine.aggregate.Engine.frames_saved > 0)

let test_definition1_per_session () =
  let n = 7 and t = 2 and sessions = 6 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let specs =
    List.init sessions (fun k ->
        Engine.session ~sid:k ~adversary:(mk_adversary k) (mk_protocol ~n k))
  in
  let outcome = Engine.run_sim ~n ~t ~corrupt specs in
  List.iter
    (fun result ->
      let k = result.Engine.r_sid in
      let outputs = Engine.honest_outputs ~corrupt result in
      (match outputs with
      | o :: rest ->
          List.iter
            (fun o' ->
              Alcotest.check bigint_t
                (Printf.sprintf "session %d agreement" k) o o')
            rest
      | [] -> Alcotest.fail "no honest outputs");
      let honest_inputs =
        List.filteri
          (fun i _ -> not corrupt.(i))
          (Array.to_list (session_inputs ~n k))
      in
      List.iter
        (fun o ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "session %d convex validity" k)
            true
            (Convex.in_convex_hull ~inputs:honest_inputs o))
        outputs)
    outcome.Engine.sessions

let test_staggered_admission () =
  (* Sessions arrive mid-run, every 3 engine rounds, and retire at different
     times; none of that may perturb any session's outputs or metrics. *)
  let n = 7 and t = 2 and sessions = 5 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let specs =
    List.init sessions (fun k ->
        Engine.session ~sid:k ~start_round:(3 * k) ~adversary:(mk_adversary k)
          (mk_protocol ~n k))
  in
  let outcome = Engine.run_sim ~n ~t ~corrupt specs in
  List.iter
    (check_session_equals_sequential ~n ~t ~corrupt ~mk_adversary
       ~mk_protocol:(mk_protocol ~n))
    outcome.Engine.sessions;
  List.iter
    (fun r ->
      Alcotest.check Alcotest.int
        (Printf.sprintf "session %d admitted at its start round" r.Engine.r_sid)
        (3 * r.Engine.r_sid) r.Engine.r_admitted_at;
      Alcotest.check Alcotest.int
        (Printf.sprintf "session %d round-offset arithmetic" r.Engine.r_sid)
        (r.Engine.r_admitted_at + r.Engine.r_metrics.Metrics.rounds - 1)
        r.Engine.r_retired_at)
    outcome.Engine.sessions;
  Alcotest.check Alcotest.bool "sessions overlapped" true
    (outcome.Engine.aggregate.Engine.peak_live > 1)

let test_mixed_lengths_and_retirement () =
  (* Sessions of very different round counts: short ones retire while long
     ones keep running; outputs must still match sequential runs. *)
  let n = 4 and t = 1 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let mk_protocol k =
    if k mod 2 = 0 then mk_protocol ~n k
    else fun ctx ->
      (* A one-round echo protocol, much shorter than Pi_Z. *)
      let ( let* ) = Proto.( let* ) in
      Proto.run
        (let* inbox = Proto.broadcast (Printf.sprintf "s%d-%d" k ctx.Ctx.me) in
         let heard = Array.fold_left (fun a m -> if m = None then a else a + 1) 0 inbox in
         Proto.return (Bigint.of_int heard))
  in
  let specs =
    List.init 4 (fun k ->
        Engine.session ~sid:k ~adversary:(mk_adversary k) (mk_protocol k))
  in
  let outcome = Engine.run_sim ~n ~t ~corrupt specs in
  List.iter
    (check_session_equals_sequential ~n ~t ~corrupt ~mk_adversary ~mk_protocol)
    outcome.Engine.sessions

let test_64_sessions_cross_backend () =
  (* The acceptance bar: >= 64 concurrent Pi_Z sessions at n = 7 on both
     backends, multiplexed outputs bit-identical to sequential runs, with
     positive coalescing savings. *)
  let n = 7 and t = 2 and sessions = 64 in
  let no_corrupt = Array.make n false in
  let specs =
    List.init sessions (fun k -> Engine.session ~sid:k (mk_protocol ~n k))
  in
  let sim = Engine.run_sim ~n ~t ~corrupt:no_corrupt specs in
  let poll = Engine.run_poll ~n ~t ~corrupt:no_corrupt specs in
  Alcotest.check Alcotest.int "sim completed all" sessions
    sim.Engine.aggregate.Engine.sessions_completed;
  Alcotest.check Alcotest.int "peak live is K" sessions
    sim.Engine.aggregate.Engine.peak_live;
  List.iter2
    (fun (s : Bigint.t Engine.session_result) (p : Bigint.t Engine.session_result) ->
      Alcotest.check
        (Alcotest.array (Alcotest.option bigint_t))
        (Printf.sprintf "session %d outputs sim = poll" s.Engine.r_sid)
        s.Engine.r_outputs p.Engine.r_outputs;
      Alcotest.check Alcotest.int
        (Printf.sprintf "session %d rounds sim = poll" s.Engine.r_sid)
        s.Engine.r_metrics.Metrics.rounds p.Engine.r_metrics.Metrics.rounds;
      Alcotest.check Alcotest.int
        (Printf.sprintf "session %d honest bits sim = poll" s.Engine.r_sid)
        s.Engine.r_metrics.Metrics.honest_bits
        p.Engine.r_metrics.Metrics.honest_bits;
      (* And bit-identical to the session run alone. *)
      let reference =
        Sim_spec.run ~n ~t ~corrupt:no_corrupt ~adversary:Adversary.passive
          (mk_protocol ~n s.Engine.r_sid)
      in
      Alcotest.check
        (Alcotest.array (Alcotest.option bigint_t))
        (Printf.sprintf "session %d outputs = sequential" s.Engine.r_sid)
        reference.Sim.outputs s.Engine.r_outputs)
    sim.Engine.sessions poll.Engine.sessions;
  (* The two backends drive the same engine schedule and the same frames:
     the full ledger agrees, naive-transport accounting included. *)
  Alcotest.check Alcotest.bool "aggregate ledger sim = poll" true
    (sim.Engine.aggregate = poll.Engine.aggregate);
  Alcotest.check Alcotest.bool "coalescing saves frames" true
    (sim.Engine.aggregate.Engine.frames_saved > 0)

let test_spec_validation () =
  let n = 4 and t = 1 in
  let corrupt = Array.make n false in
  let p _ctx = Proto.run (Proto.return (Bigint.of_int 0)) in
  Alcotest.check_raises "duplicate sid"
    (Invalid_argument "Engine: duplicate sid") (fun () ->
      ignore
        (Engine.run_sim ~n ~t ~corrupt
           [ Engine.session ~sid:1 p; Engine.session ~sid:1 p ]));
  Alcotest.check_raises "empty" (Invalid_argument "Engine: no sessions")
    (fun () -> ignore (Engine.run_sim ~n ~t ~corrupt ([] : Bigint.t Engine.spec list)))

(* Session [k]: [1 + k mod 5] rounds of payloads of mixed lengths, sessions
   [k mod 8 = 3] silent towards one recipient a round; each party's output
   counts the messages it heard, so a silent cell that is delivered as
   anything but [None] changes it. *)
let heard_protocol k (ctx : Ctx.t) =
  let ( let* ) = Proto.( let* ) in
  let rec go r heard =
    if r > 1 + (k mod 5) then Proto.return (Bigint.of_int heard)
    else
      let* inbox =
        Proto.exchange (fun dst ->
            if k mod 8 = 3 && dst = (r mod 4) then None
            else Some (String.make (((k * 7) + (r * 31) + ctx.Ctx.me) mod 200) 'p'))
      in
      go (r + 1) (Array.fold_left (fun a m -> if m = None then a else a + 1) heard inbox)
  in
  Proto.run (go 1 0)

(* The specs of the ledger tests: [sessions] sessions of [heard_protocol]
   under equivocation, sid 0 admitted after engine round 128. *)
let heard_specs sessions =
  List.init sessions (fun k ->
      Engine.session ~sid:k
        ~start_round:(if k = 0 then 140 else 0)
        ~adversary:(mk_adversary k) (heard_protocol k))

(* The round loop derives the frame ledger two ways, on every transport:
   from per-session sums while fewer than 128 sessions are live and no
   frame-size histogram is recorded, and edge by edge otherwise (a recorder
   records the histogram). Runs of K = 1, 64 and 130 sessions of mixed
   lengths and payload sizes, with one corrupted party, give the same
   aggregate without a recorder, with one, and over poll with and without
   one — and the poll runs put exactly the ledger's frame bytes on the wire.
   At K = 130 the live count starts above 128 (two-byte entry counts) and
   falls below it as sessions retire; sid 0 starts after engine round 128
   (two-byte round numbers), and payloads reach two-byte lengths. *)
let test_frame_ledger_paths () =
  let n = 4 and t = 1 in
  let corrupt = [| false; false; true; false |] in
  List.iter
    (fun sessions ->
      let specs = heard_specs sessions in
      let bare = Engine.run_sim ~n ~t ~corrupt specs in
      let recorded = Engine.run_sim ~obs:(Obs.create ()) ~n ~t ~corrupt specs in
      let over_poll ?obs () =
        let net = Net_poll.create ~n () in
        Fun.protect
          ~finally:(fun () -> Net_poll.close net)
          (fun () ->
            let o =
              Engine.run_core ?obs ~transport:(Net_poll.transport net) ~n ~t
                ~corrupt specs
            in
            Alcotest.check Alcotest.int
              (Printf.sprintf "K=%d wire bytes = ledger" sessions)
              o.Engine.aggregate.Engine.frame_bytes
              (Net_poll.stats net).Net_poll.p_frame_bytes;
            o)
      in
      let poll = over_poll () in
      let poll_recorded = over_poll ~obs:(Obs.create ()) () in
      Alcotest.check Alcotest.int
        (Printf.sprintf "K=%d all completed" sessions)
        sessions bare.Engine.aggregate.Engine.sessions_completed;
      Alcotest.check Alcotest.bool
        (Printf.sprintf "K=%d aggregate: bare = recorded" sessions)
        true
        (bare.Engine.aggregate = recorded.Engine.aggregate);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "K=%d aggregate: bare = poll" sessions)
        true
        (bare.Engine.aggregate = poll.Engine.aggregate);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "K=%d aggregate: bare = recorded poll" sessions)
        true
        (bare.Engine.aggregate = poll_recorded.Engine.aggregate))
    [ 1; 64; 130 ]

(* The poll transport writes frames from the round loop's slots, and a
   frame that arrives as written leaves the round's cells holding the sent
   values without being parsed, so its allocation over the loopback run is
   the select loop's own bookkeeping: 2 807 minor words per session for
   honest K = 64, n = 7 Pi_Z (deterministic up to a few words of select-loop lists, which
   vary with wakeups; 7 140 when every frame was parsed and delivered each
   entry as the sent value). A fresh copy and [Some] per delivered entry
   cost 40 941; per-edge entry lists, their tuples and a sid -> slot hash
   map 125 734. The bound is the midpoint of 7 140 and 40 941, so any
   per-message allocation coming back fails here. *)
let poll_extra_words_per_session = 24_040.

let test_poll_allocation_guard () =
  let n = 7 and t = 2 and sessions = 64 in
  let corrupt = Array.make n false in
  let specs () =
    List.init sessions (fun k -> Engine.session ~sid:k (mk_protocol ~n k))
  in
  let words run =
    let specs = specs () in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (run specs));
    Gc.minor_words () -. w0
  in
  let sim = words (Engine.run_sim ~n ~t ~corrupt) in
  let poll = words (Engine.run_poll ~n ~t ~corrupt) in
  let extra = (poll -. sim) /. float_of_int sessions in
  if extra > poll_extra_words_per_session then
    Alcotest.failf "poll allocates %.0f minor words/session over loopback > %.0f"
      extra poll_extra_words_per_session

(* A transport that moves nothing but parses every frame back, so the
   round loop's delivery reads only what the parser wrote. Each exchange
   writes every edge's frame into its own staged record, overwrites every
   live off-diagonal cell with junk, then hands each record to
   [edge_receive] against an empty staged record, which no body matches. *)
let parsing_transport ~n =
  let out = Array.init n (fun _ -> Array.init n (fun _ -> Wire.Frame.staged ())) in
  let empty = Wire.Frame.staged () in
  let expect = ref (-1) in
  let on_round r =
    if r <> !expect then failwith (Printf.sprintf "parsing transport: round %d" r)
  in
  let exchange ~round ~(entries : Transport.slots) =
    expect := round;
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then Wire.Frame.write_edge entries ~round ~src ~dst out.(src).(dst)
      done
    done;
    for i = 0 to entries.Transport.live - 1 do
      Array.iteri
        (fun dst row ->
          Array.iteri (fun src _ -> if src <> dst then row.(src) <- Some "\xffjunk") row)
        entries.Transport.msgs.(i)
    done;
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then begin
          let st = out.(src).(dst) in
          if
            not
              (Wire.Frame.edge_receive entries ~src ~dst ~on_round empty st.Wire.Frame.bytes
                 (st.Wire.Frame.first + 4) st.Wire.Frame.stop)
          then failwith "parsing transport: frame refused"
        end
      done
    done
  in
  { Transport.name = "parsing"; exchange; close = ignore }

(* The entry-wise parse path inside the loop: runs of K = 1, 64 and 130
   sessions under equivocation, with a recorder, give the loopback's
   outputs, per-session metrics, aggregate and Det JSONL byte for byte when
   every frame is parsed back into cells that held junk. *)
let test_parse_path_equals_loopback () =
  let n = 4 and t = 1 in
  let corrupt = [| false; false; true; false |] in
  let fingerprint transport sessions =
    let obs = Obs.create () in
    let o = Engine.run_core ~obs ~transport ~n ~t ~corrupt (heard_specs sessions) in
    ( List.map
        (fun r ->
          ( r.Engine.r_sid,
            Array.to_list (Array.map (Option.map Bigint.to_hex) r.Engine.r_outputs),
            ( r.Engine.r_metrics.Metrics.rounds,
              r.Engine.r_metrics.Metrics.honest_bits,
              r.Engine.r_metrics.Metrics.honest_msgs,
              r.Engine.r_metrics.Metrics.byz_bits,
              r.Engine.r_metrics.Metrics.byz_msgs ),
            Metrics.labels r.Engine.r_metrics,
            (r.Engine.r_admitted_at, r.Engine.r_retired_at) ))
        o.Engine.sessions,
      o.Engine.aggregate,
      Obs.to_jsonl ~tier:Obs.Det obs )
  in
  List.iter
    (fun sessions ->
      let base_sessions, base_agg, base_jsonl =
        fingerprint (Transport.loopback ()) sessions
      in
      let got_sessions, got_agg, got_jsonl =
        fingerprint (parsing_transport ~n) sessions
      in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "K=%d outputs + per-session metrics" sessions)
        true (got_sessions = base_sessions);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "K=%d aggregate" sessions)
        true (got_agg = base_agg);
      Alcotest.check Alcotest.string
        (Printf.sprintf "K=%d Det JSONL" sessions)
        base_jsonl got_jsonl)
    [ 1; 64; 130 ]

let suite =
  [
    Alcotest.test_case "multiplexed = sequential (K=8, equivocate)" `Quick
      test_multiplexed_equals_sequential;
    Alcotest.test_case "Definition 1 per session" `Quick test_definition1_per_session;
    Alcotest.test_case "staggered admission" `Quick test_staggered_admission;
    Alcotest.test_case "mixed lengths + retirement" `Quick
      test_mixed_lengths_and_retirement;
    Alcotest.test_case "64 sessions on both backends" `Slow
      test_64_sessions_cross_backend;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "frame ledger: summed = per-edge = poll (K=1/64/130)"
      `Quick test_frame_ledger_paths;
    Alcotest.test_case "poll allocation over loopback (K=64, n=7)" `Slow
      test_poll_allocation_guard;
    Alcotest.test_case "every frame parsed = loopback (K=1/64/130)" `Quick
      test_parse_path_equals_loopback;
  ]
