(* Poll backend: the event-driven transport must be invisible. Outputs,
   per-session metrics, the aggregate ledger, trace CSV and Det obs JSONL
   must be byte-identical to the simulator on the same seeds — while every
   frame actually moves through nonblocking sockets, including under
   backpressure (frames several times the kernel's socket send buffer, so
   bytes park and trickle). Plus single protocols run over the sockets
   (roll call, silence, phase-king, long values, parallel branches,
   exceptions) and direct Net_poll unit tests: parking stats, the
   write-stall histogram, transport violations, lifecycle, the /proc
   memory probes. *)

open Net

let fingerprint show (o : _ Engine.outcome) =
  ( List.map
      (fun r ->
        ( r.Engine.r_sid,
          Array.to_list (Array.map (Option.map show) r.Engine.r_outputs),
          ( r.Engine.r_metrics.Metrics.rounds,
            r.Engine.r_metrics.Metrics.honest_bits,
            r.Engine.r_metrics.Metrics.honest_msgs,
            r.Engine.r_metrics.Metrics.byz_bits,
            r.Engine.r_metrics.Metrics.byz_msgs ),
          Metrics.labels r.Engine.r_metrics,
          (r.Engine.r_admitted_at, r.Engine.r_retired_at) ))
      o.Engine.sessions,
    o.Engine.aggregate )

let mk_specs ~n ~sessions ~spacing ~seed =
  List.init sessions (fun k ->
      let inputs =
        let rng = Prng.create (seed + (101 * k)) in
        Workload.clustered_bits rng ~n ~bits:48 ~shared_prefix_bits:16
      in
      Engine.session ~sid:k ~start_round:(spacing * k)
        ~adversary:(Adversary.equivocate ~seed:(seed + (31 * k)))
        (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))

(* One run under a fresh message-recording observer: its fingerprint, its
   message CSV and its Det JSONL. *)
let recorded show run =
  let obs = Obs.create ~messages:true () in
  let outcome = run obs in
  (fingerprint show outcome, Obs.messages_csv obs, Obs.to_jsonl ~tier:Obs.Det obs)

let check_same label (base_fp, base_csv, base_jsonl) (fp, csv, jsonl) =
  Alcotest.(check bool)
    (Printf.sprintf "outputs+metrics+ledger (%s)" label)
    true (fp = base_fp);
  Alcotest.(check string)
    (Printf.sprintf "trace CSV byte-identical (%s)" label)
    base_csv csv;
  Alcotest.(check string)
    (Printf.sprintf "Det obs JSONL byte-identical (%s)" label)
    base_jsonl jsonl

let check_poll_equals_sim ~sessions ~spacing ~n ~t ~seed backends =
  let corrupt = Workload.spread_corrupt ~n ~t in
  let run backend =
    recorded Bigint.to_hex (fun obs ->
        let specs = mk_specs ~n ~sessions ~spacing ~seed in
        match backend with
        | `Sim -> Engine.run_sim ~obs ~n ~t ~corrupt specs
        | `Poll -> Engine.run_poll ~obs ~n ~t ~corrupt specs
        | `Poll_domains d -> Engine.run_poll ~domains:d ~obs ~n ~t ~corrupt specs)
  in
  let base = run `Sim in
  List.iter (fun (label, backend) -> check_same label base (run backend)) backends

(* K=8 under equivocate with staggered admission: the poll mesh and a
   parallel deliver phase must both reproduce the simulator byte for byte.
   (Frames that park on every edge are "engine progresses, big frames
   park"'s.) *)
let test_poll_equals_sim_k8 () =
  check_poll_equals_sim ~sessions:8 ~spacing:2 ~n:7 ~t:2 ~seed:4242
    [ ("poll", `Poll); ("poll domains=2", `Poll_domains 2) ]

let test_poll_equals_sim_k64 () =
  check_poll_equals_sim ~sessions:64 ~spacing:1 ~n:7 ~t:2 ~seed:777
    [ ("poll", `Poll) ]

(* ---- single protocols over sockets ---------------------------------------- *)

(* One honest session through the poll mesh: every party's output, plus the
   session result and the aggregate ledger. *)
let over_sockets ?(t = 0) ~n protocol =
  let o =
    Engine.run_poll ~n ~t ~corrupt:(Array.make n false)
      [ Engine.session ~sid:0 protocol ]
  in
  match o.Engine.sessions with
  | [ r ] -> (Array.map Option.get r.Engine.r_outputs, r, o.Engine.aggregate)
  | _ -> Alcotest.fail "one session expected"

let bigint_t = Alcotest.testable Bigint.pp Bigint.equal

let test_roll_call () =
  let ( let* ) = Proto.( let* ) in
  let protocol (_ctx : Ctx.t) =
    Proto.run
      (let* inbox = Proto.broadcast "here" in
       Proto.return (Array.fold_left (fun a m -> if m = None then a else a + 1) 0 inbox))
  in
  let outputs, r, agg = over_sockets ~n:5 protocol in
  Array.iter (fun h -> Alcotest.check Alcotest.int "hears all" 5 h) outputs;
  Alcotest.check Alcotest.int "rounds" 1 r.Engine.r_metrics.Metrics.rounds;
  Alcotest.check Alcotest.int "frames" (5 * 4) agg.Engine.frames_sent;
  Alcotest.check Alcotest.int "payload bytes" (5 * 4 * 4) agg.Engine.payload_bytes

let test_per_recipient_and_silence () =
  let ( let* ) = Proto.( let* ) in
  let protocol (ctx : Ctx.t) =
    (* Round 1: party 0 sends a distinct value to each peer, others silent.
       Round 2: everybody echoes what they received from 0. *)
    Proto.run
      (let* first =
         Proto.exchange (fun r ->
             if ctx.Ctx.me = 0 then Some (Printf.sprintf "to-%d" r) else None)
       in
       let got = Option.value ~default:"nothing" first.(0) in
       let* second = Proto.broadcast got in
       Proto.return (Array.map (Option.value ~default:"-") second))
  in
  let outputs, _, _ = over_sockets ~n:3 protocol in
  Array.iter
    (fun echoes ->
      Alcotest.check (Alcotest.array Alcotest.string) "echoes"
        [| "to-0"; "to-1"; "to-2" |] echoes)
    outputs

let test_phase_king_over_sockets () =
  let inputs = [| "alpha"; "beta"; "alpha"; "alpha" |] in
  let outputs, _, _ =
    over_sockets ~n:4 (fun ctx -> Proto.run (Ba.Phase_king.run_bytes ctx inputs.(ctx.Ctx.me)))
  in
  Array.iter (fun o -> Alcotest.check Alcotest.string "agreement" outputs.(0) o) outputs;
  Alcotest.check Alcotest.bool "output is an input" true
    (Array.exists (String.equal outputs.(0)) inputs)

let test_pi_z_over_sockets_equals_sim () =
  let n = 4 and t = 1 in
  let inputs = [| -1005; -1003; -1004; -1004 |] in
  let protocol ctx = Convex.agree_int ctx (Bigint.of_int inputs.(ctx.Ctx.me)) in
  let outputs, r, _ = over_sockets ~n ~t protocol in
  let sim =
    Sim.run ~n ~t ~corrupt:(Array.make n false) ~adversary:Adversary.passive protocol
  in
  Alcotest.check (Alcotest.array bigint_t) "same outputs on both backends"
    (Array.map Option.get sim.Sim.outputs) outputs;
  Alcotest.check Alcotest.int "same round count" sim.Sim.metrics.Metrics.rounds
    r.Engine.r_metrics.Metrics.rounds

let test_long_values_over_sockets () =
  (* 20 KB values: multi-kilobyte frames once coalesced, exercising partial
     reads and writes. *)
  let n = 4 in
  let big = Bigint.pred (Bigint.pow2 160_000) in
  let inputs = Array.init n (fun i -> Bigint.sub big (Bigint.of_int i)) in
  let outputs, _, agg =
    over_sockets ~n (fun ctx -> Proto.run (Convex.agree_nat ctx inputs.(ctx.Ctx.me)))
  in
  Array.iter (fun o -> Alcotest.check bigint_t "agreement" outputs.(0) o) outputs;
  Alcotest.check Alcotest.bool "in range" true
    (Bigint.compare (Bigint.sub big (Bigint.of_int (n - 1))) outputs.(0) <= 0
    && Bigint.compare outputs.(0) big <= 0);
  Alcotest.check Alcotest.bool "moved real bytes" true
    (agg.Engine.frame_bytes > 100_000)

let test_parallel_over_sockets () =
  (* Two phase-king instances side by side through the parallel combinator. *)
  let n = 4 in
  let inputs_a = [| "x"; "y"; "x"; "x" |] in
  let outputs, _, _ =
    over_sockets ~n (fun ctx ->
        Proto.run
          (Proto.both
            (Ba.Phase_king.run_bytes ctx inputs_a.(ctx.Ctx.me))
            (Ba.Phase_king.run_bit ctx (ctx.Ctx.me < 2))))
  in
  let first_a, first_b = outputs.(0) in
  Array.iter
    (fun (a, b) ->
      Alcotest.check Alcotest.string "branch A agrees" first_a a;
      Alcotest.check Alcotest.bool "branch B agrees" first_b b)
    outputs;
  Alcotest.check Alcotest.bool "A output is an input" true
    (Array.exists (String.equal first_a) inputs_a)

let test_exception_propagates () =
  Alcotest.check_raises "party failure surfaces" (Failure "boom") (fun () ->
      ignore
        (over_sockets ~n:3 (fun ctx ->
             if ctx.Ctx.me = 1 then failwith "boom" else Proto.run (Proto.return ()))))

(* ---- backpressure --------------------------------------------------------- *)

(* A hand-built round of [Array.length sids] sessions over [n] parties:
   [msg i src dst] is slot [i]'s message on edge [src -> dst]. *)
let round_slots ~n ~sids msg =
  let live = Array.length sids in
  {
    Wire.Frame.live;
    sids;
    msgs =
      Array.init live (fun i ->
          Array.init n (fun src ->
              Array.init n (fun dst -> if src = dst then None else msg i src dst)));
  }

let exchange net ~round s =
  (Net_poll.transport net).Transport.exchange ~round ~entries:s

(* One edge's 1 MiB frame is several times the kernel's socket send buffer
   (212 992 bytes by default on Linux): the bytes must park and trickle
   while every other connection completes, and the exchange still delivers
   everything intact. *)
let test_exchange_slow_edge () =
  let n = 3 in
  let net = Net_poll.create ~n () in
  Fun.protect
    ~finally:(fun () -> Net_poll.close net)
    (fun () ->
      let big = String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
      let s =
        round_slots ~n ~sids:[| 7 |] (fun _ src dst ->
            if src = 0 && dst = 1 then Some big
            else Some (Printf.sprintf "m%d%d" src dst))
      in
      exchange net ~round:0 s;
      Alcotest.(check (option string)) "slow edge payload intact" (Some big)
        s.Wire.Frame.msgs.(0).(0).(1);
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst && not (src = 0 && dst = 1) then
            Alcotest.(check (option string))
              (Printf.sprintf "edge %d->%d delivered" src dst)
              (Some (Printf.sprintf "m%d%d" src dst))
              s.Wire.Frame.msgs.(0).(src).(dst)
        done
      done;
      let st = Net_poll.stats net in
      Alcotest.(check bool) "frames parked under backpressure" true
        (st.Net_poll.p_parked > 0);
      Alcotest.(check bool) "backlog peaked near the big frame" true
        (st.Net_poll.p_max_backlog > 50_000);
      Alcotest.(check int) "one exchange" 1 st.Net_poll.p_rounds;
      Alcotest.(check int) "all frames counted" (n * (n - 1))
        st.Net_poll.p_frames)

(* One K = 64 session exchange over n = 4 parties, every edge carrying a
   distinct 24-byte payload per session: 768 entries. Every frame arrives
   byte for byte as written, so no frame is parsed: every cell of the
   round's slots is left physically as it was. What the exchange
   allocates is the select loop's own bookkeeping, whatever K is: 257 words
   when measured (597 while every frame was parsed and each conn/fd list
   rebuilt per select). Copying each entry instead (a 5-word string and a
   2-word [Some]) adds 5376 words. The bound leaves room for many more
   select iterations. *)
let test_exchange_allocation () =
  let n = 4 and k = 64 in
  let net = Net_poll.create ~n () in
  Fun.protect
    ~finally:(fun () -> Net_poll.close net)
    (fun () ->
      let s =
        round_slots ~n ~sids:(Array.init k Fun.id) (fun i src dst ->
            Some (Printf.sprintf "payload %04d on %d->%d...." i src dst))
      in
      (* The first exchange binds the receivers and grows the buffers. *)
      exchange net ~round:0 s;
      let before = Array.map (Array.map Array.copy) s.Wire.Frame.msgs in
      let m0 = Gc.minor_words () in
      let m1 = Gc.minor_words () in
      exchange net ~round:1 s;
      let m2 = Gc.minor_words () in
      let words = m2 -. m1 -. (m1 -. m0) in
      Alcotest.(check bool)
        (Printf.sprintf "minor words %.0f <= 1500" words)
        true (words <= 1500.);
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then
            Alcotest.(check bool)
              (Printf.sprintf "edge %d->%d cells physically unchanged" src dst)
              true
              (Array.for_all2
                 (fun cells old -> cells.(src).(dst) == old.(src).(dst))
                 s.Wire.Frame.msgs before)
        done
      done)

(* Sessions whose frames dwarf the kernel's socket send buffer: each party
   broadcasts a 256 KB message in each of two rounds, the second derived
   from what it heard in the first, and outputs a digest of what it heard
   in the second. K = 3 sessions admitted one round apart over n = 4
   parties, party 0 equivocating. *)
let big_n = 4
let big_t = 1
let big_corrupt = Workload.spread_corrupt ~n:big_n ~t:big_t

let big_frame_specs () =
  let ( let* ) = Proto.( let* ) in
  let heard inbox =
    Array.to_list (Array.map (Option.value ~default:"-") inbox)
    |> String.concat "|" |> Sha256.digest
  in
  List.init 3 (fun k ->
      Engine.session ~sid:k ~start_round:k
        ~adversary:(Adversary.equivocate ~seed:(90 + k))
        (fun ctx ->
          let salt = (7 * ctx.Ctx.me) + (13 * k) in
          let first =
            String.init 256_000 (fun i -> Char.chr ((i + salt) land 0xff))
          in
          Proto.run
            (let* inbox = Proto.broadcast first in
             let* inbox =
               Proto.broadcast (heard inbox ^ String.make 256_000 'r')
             in
             Proto.return (Sha256.to_hex (heard inbox)))))

(* Engine-level: every coalesced frame is larger than the kernel takes at
   once, so every edge parks while the engine still reproduces the
   simulator byte for byte: outputs, metrics, ledger, message CSV and Det
   JSONL. *)
let test_engine_progresses_under_backpressure () =
  let n = big_n and t = big_t and corrupt = big_corrupt in
  let reference =
    recorded Fun.id (fun obs ->
        Engine.run_sim ~obs ~n ~t ~corrupt (big_frame_specs ()))
  in
  let net = Net_poll.create ~n () in
  let poll =
    Fun.protect
      ~finally:(fun () -> Net_poll.close net)
      (fun () ->
        recorded Fun.id (fun obs ->
            Engine.run_core ~obs ~transport:(Net_poll.transport net) ~n ~t
              ~corrupt (big_frame_specs ())))
  in
  check_same "parked frames" reference poll;
  let (_, aggregate), _, _ = poll in
  let st = Net_poll.stats net in
  Alcotest.(check int) "transport saw every engine round"
    aggregate.Engine.engine_rounds st.Net_poll.p_rounds;
  Alcotest.(check int) "transport moved every ledger frame"
    aggregate.Engine.frames_sent st.Net_poll.p_frames;
  Alcotest.(check int) "transport frame bytes match the ledger"
    aggregate.Engine.frame_bytes st.Net_poll.p_frame_bytes;
  Alcotest.(check bool) "big frames parked" true
    (st.Net_poll.p_parked > 0);
  Alcotest.(check bool) "wire bytes = frame bytes + prefixes" true
    (st.Net_poll.p_wire_bytes
    = st.Net_poll.p_frame_bytes + (4 * st.Net_poll.p_frames));
  Alcotest.(check bool) "allocation meter ran" true
    (st.Net_poll.p_minor_words_per_round > 0.0);
  (* Per-connection peak backlogs: n*n matrix, zero diagonal, and every
     off-diagonal edge parked bytes at some point. The scalar p_max_backlog
     is exactly the matrix maximum. *)
  let m = st.Net_poll.p_conn_peak_backlog in
  Alcotest.(check int) "backlog matrix rows" n (Array.length m);
  Array.iteri
    (fun s row ->
      Alcotest.(check int) "backlog matrix cols" n (Array.length row);
      Array.iteri
        (fun d peak ->
          if s = d then
            Alcotest.(check int)
              (Printf.sprintf "diagonal %d zero" s)
              0 peak
          else
            Alcotest.(check bool)
              (Printf.sprintf "edge %d->%d parked bytes" s d)
              true (peak > 0))
        row)
    m;
  let matrix_max =
    Array.fold_left
      (fun acc row -> Array.fold_left max acc row)
      0 m
  in
  Alcotest.(check int) "p_max_backlog = matrix maximum" matrix_max
    st.Net_poll.p_max_backlog;
  (* Select-wait accounting: both wall-clock figures are nonnegative and the
     mean cannot exceed the longest single wait. *)
  Alcotest.(check bool) "select waits nonnegative" true
    (st.Net_poll.p_select_wait_max_s >= 0.0
    && st.Net_poll.p_select_wait_mean_s >= 0.0);
  Alcotest.(check bool) "mean select wait <= max select wait" true
    (st.Net_poll.p_select_wait_mean_s <= st.Net_poll.p_select_wait_max_s)

(* The poll sink's write-stall histogram records one stall per parked
   frame: some on the big-frame sessions, none on the K = 8 run, whose
   frames the kernel always takes at once. *)
let test_write_stall_histogram () =
  let stalls ~n ~t ~corrupt specs =
    let obs = Obs.create () in
    ignore (Engine.run_poll ~obs ~n ~t ~corrupt specs);
    Obs.Hist.count (Obs.hist obs ~tier:Obs.Sampled "poll/write_stall_ns")
  in
  Alcotest.(check bool) "big frames stalled" true
    (stalls ~n:big_n ~t:big_t ~corrupt:big_corrupt (big_frame_specs ()) > 0);
  Alcotest.(check int) "K=8 never stalled" 0
    (stalls ~n:7 ~t:2 ~corrupt:(Workload.spread_corrupt ~n:7 ~t:2)
       (mk_specs ~n:7 ~sessions:8 ~spacing:2 ~seed:4242))

(* ---- transport violations and lifecycle ----------------------------------- *)

(* An exchange that raises part-way (here the last connection's edge,
   [1 -> 0], carries a negative sid) leaves the frames already written by
   earlier connections in their sockets. The next exchange must reject such a
   stale frame by its round, not deliver it. *)
let test_wrong_round_rejected () =
  let net = Net_poll.create ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Net_poll.close net)
    (fun () ->
      let bad =
        round_slots ~n:2 ~sids:[| -1 |] (fun _ src _ ->
            if src = 1 then Some "x" else None)
      in
      Alcotest.check_raises "negative sid" (Invalid_argument "Wire.w_varint")
        (fun () -> exchange net ~round:3 bad);
      let good = round_slots ~n:2 ~sids:[| 0 |] (fun _ _ _ -> Some "y") in
      Alcotest.check_raises "round mismatch"
        (Failure "Net_poll: expected round 4, got 3") (fun () ->
          exchange net ~round:4 good))

let test_lifecycle () =
  Alcotest.check_raises "n < 1" (Invalid_argument "Net_poll.create: n < 1")
    (fun () -> ignore (Net_poll.create ~n:0 ()));
  let net = Net_poll.create ~n:2 () in
  Net_poll.close net;
  Net_poll.close net;
  Alcotest.check_raises "exchange after close"
    (Invalid_argument "Net_poll.exchange: closed") (fun () ->
      exchange net ~round:0 (round_slots ~n:2 ~sids:[| 0 |] (fun _ _ _ -> None)))

let test_rss_probes () =
  (match Net_poll.rss_bytes () with
  | Some b -> Alcotest.(check bool) "rss positive" true (b > 0)
  | None -> Alcotest.fail "rss_bytes unavailable on Linux");
  match Net_poll.rss_peak_bytes () with
  | Some b -> Alcotest.(check bool) "peak rss positive" true (b > 0)
  | None -> Alcotest.fail "rss_peak_bytes unavailable on Linux"

let test_parse_vm_line () =
  let check name expect line =
    Alcotest.(check (option int))
      name expect
      (Net_poll.parse_vm_line ~key:"VmHWM:" line)
  in
  check "tab-separated" (Some (5124 * 1024)) "VmHWM:\t    5124 kB";
  check "space-separated" (Some (42 * 1024)) "VmHWM:   42 kB";
  check "zero" (Some 0) "VmHWM:\t       0 kB";
  check "other key" None "VmRSS:\t    5124 kB";
  check "prefix only, no digits" None "VmHWM:\t kB";
  check "bare key" None "VmHWM:";
  check "empty line" None "";
  Alcotest.(check (option int))
    "different key matches" (Some (9 * 1024))
    (Net_poll.parse_vm_line ~key:"VmRSS:" "VmRSS:\t9 kB");
  (* Absent VmHWM must not zero the soak's peak tracking: once a peak has
     been observed, the probe keeps reporting the last-known value. *)
  match Net_poll.rss_peak_bytes () with
  | None -> Alcotest.fail "rss_peak_bytes unavailable on Linux"
  | Some _ -> (
      (* A second read still succeeds (and refreshes the cache). *)
      match Net_poll.rss_peak_bytes () with
      | Some b -> Alcotest.(check bool) "cached peak positive" true (b > 0)
      | None -> Alcotest.fail "peak cache lost")

let suite =
  [
    Alcotest.test_case "poll = sim: K=8 equivocate, staggered admission"
      `Quick test_poll_equals_sim_k8;
    Alcotest.test_case "poll = sim: K=64 equivocate" `Quick
      test_poll_equals_sim_k64;
    Alcotest.test_case "slow edge parks, everything still delivered" `Quick
      test_exchange_slow_edge;
    Alcotest.test_case "one K-session exchange allocates no payload" `Quick
      test_exchange_allocation;
    Alcotest.test_case "engine progresses, big frames park" `Quick
      test_engine_progresses_under_backpressure;
    Alcotest.test_case "wrong-round frame rejected" `Quick
      test_wrong_round_rejected;
    Alcotest.test_case "create/close/exchange lifecycle" `Quick test_lifecycle;
    Alcotest.test_case "/proc memory probes" `Quick test_rss_probes;
    Alcotest.test_case "parse_vm_line" `Quick test_parse_vm_line;
    Alcotest.test_case "over sockets: roll call" `Quick test_roll_call;
    Alcotest.test_case "over sockets: per-recipient + silence" `Quick
      test_per_recipient_and_silence;
    Alcotest.test_case "over sockets: phase-king" `Quick
      test_phase_king_over_sockets;
    Alcotest.test_case "over sockets: Pi_Z = simulator" `Quick
      test_pi_z_over_sockets_equals_sim;
    Alcotest.test_case "over sockets: long values" `Slow
      test_long_values_over_sockets;
    Alcotest.test_case "over sockets: parallel combinator" `Quick
      test_parallel_over_sockets;
    Alcotest.test_case "over sockets: exception propagation" `Quick
      test_exception_propagates;
    Alcotest.test_case "write-stall histogram: big frames only" `Quick
      test_write_stall_histogram;
  ]
