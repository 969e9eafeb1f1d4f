(* Observability plane (lib/obs). Five layers of assertions:

   1. Histogram algebra — qcheck properties: bucket bounds are monotone and
      contiguous, every int lands in exactly one bucket whose bounds contain
      it, and recorded quantiles bracket the true (sorted-rank) quantile.
   2. Instrument semantics — tier filtering, canonical export order, name
      conflicts, and the export's own schema validators (strict JSON).
   3. The deterministic tier on a real K=8 engine workload: the Det JSONL
      and the virtual-clock chrome trace must be byte-identical across
      run_sim and run_poll, and the Det instruments must
      reproduce the engine's aggregate ledger exactly (the frame-bytes
      histogram sums to the ledger's frame_bytes by construction).
   4. A differential pin: two runs' Det JSONL and chrome trace hash to what
      the separate span and instrument planes exported before the merge;
      and the per-session label tables, identical with and without a
      recorder attached.
   5. The span plane: span bits = Metrics.honest_bits on every backend
      (sim, engine sim/poll), canonical JSONL determinism, cross-backend
      export equality, and the convex-hull convergence probes.
   Plus the samples (the recorder's time series), the span report's label
   table, and the
   CLI's exports: one recorder behind run --csv --telemetry, and
   obs --check on an engine --obs-dir export. *)

open Net

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- histogram algebra ---------------------------------------------------- *)

(* Bounds are exact powers of two below the platform's word size and clamp
   to max_int at the saturated top (bucket Sys.int_size - 1 and above). *)
let top_exact = Sys.int_size - 2

let test_bucket_bounds_monotone () =
  Alcotest.(check int) "bucket 0 lower bound" min_int (Obs.Hist.bucket_lo 0);
  Alcotest.(check int) "bucket 0 upper bound" 0 (Obs.Hist.bucket_hi 0);
  for i = 1 to top_exact do
    Alcotest.(check int)
      (Printf.sprintf "bucket %d lower bound" i)
      (1 lsl (i - 1))
      (Obs.Hist.bucket_lo i);
    Alcotest.(check bool)
      (Printf.sprintf "bucket %d bounds ordered" i)
      true
      (Obs.Hist.bucket_lo i <= Obs.Hist.bucket_hi i)
  done;
  (* Contiguity: each bucket ends exactly where the next begins, up to the
     last bucket with an exact upper bound. *)
  for i = 0 to top_exact do
    Alcotest.(check int)
      (Printf.sprintf "bucket %d..%d contiguous" i (i + 1))
      (Obs.Hist.bucket_hi i + 1)
      (Obs.Hist.bucket_lo (i + 1))
  done;
  (* Above the word size the table saturates at max_int rather than
     overflowing 1 lsl 62. *)
  Alcotest.(check int) "top inhabited bucket saturates" max_int
    (Obs.Hist.bucket_hi (Sys.int_size - 1));
  Alcotest.(check int) "last slot saturates" max_int
    (Obs.Hist.bucket_hi (Obs.Hist.slots - 1))

(* Every boundary value maps to its own bucket — deterministic coverage of
   all edges, the place an off-by-one would hide. *)
let test_bucket_boundaries_roundtrip () =
  Alcotest.(check int) "min_int" 0 (Obs.Hist.bucket_of_value min_int);
  Alcotest.(check int) "0" 0 (Obs.Hist.bucket_of_value 0);
  Alcotest.(check int) "-1" 0 (Obs.Hist.bucket_of_value (-1));
  Alcotest.(check int) "max_int lands in the top inhabited bucket"
    (Sys.int_size - 1)
    (Obs.Hist.bucket_of_value max_int);
  for i = 1 to top_exact do
    Alcotest.(check int)
      (Printf.sprintf "lo(%d) maps to %d" i i)
      i
      (Obs.Hist.bucket_of_value (Obs.Hist.bucket_lo i));
    Alcotest.(check int)
      (Printf.sprintf "hi(%d) maps to %d" i i)
      i
      (Obs.Hist.bucket_of_value (Obs.Hist.bucket_hi i))
  done

(* Full-range ints: exactly one bucket, and its bounds contain the value.
   Uniqueness via contiguity — neither neighbour contains the value (the
   saturated top bucket has no exact-bounded successor to test against). *)
let prop_bucket_total =
  QCheck.Test.make ~count:2000 ~name:"every int maps into exactly one bucket"
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         oneof
           [
             int;
             small_signed_int;
             (* The adversarial band: powers of two and their neighbours. *)
             map
               (fun (sh, off) -> (1 lsl sh) + off)
               (pair (int_bound (Sys.int_size - 2)) (int_range (-1) 1));
           ]))
    (fun v ->
      let b = Obs.Hist.bucket_of_value v in
      b >= 0 && b < Obs.Hist.slots
      && Obs.Hist.bucket_lo b <= v
      && v <= Obs.Hist.bucket_hi b
      && (b = 0 || Obs.Hist.bucket_hi (b - 1) < v)
      && (b >= Sys.int_size - 1 || Obs.Hist.bucket_lo (b + 1) > v))

(* Recorded quantiles bracket the true sorted-rank quantile: the true value
   lies within the returned bucket bounds (clamped to observed min/max), so
   the estimate is off by at most one bucket width. *)
let prop_quantile_brackets =
  QCheck.Test.make ~count:500 ~name:"quantile_bounds bracket the true quantile"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200) (int_bound 2_000_000))
        (int_bound 100))
    (fun (values, pct) ->
      let q = float_of_int pct /. 100.0 in
      let h = Obs.Hist.create () in
      List.iter (Obs.Hist.record h) values;
      let sorted = List.sort compare values in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let truth = List.nth sorted (rank - 1) in
      let lo, hi = Obs.Hist.quantile_bounds h q in
      lo <= truth && truth <= hi && Obs.Hist.quantile h q = hi)

let test_hist_counts_and_merge () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.record h) [ 0; 1; 1; 3; 900; -7 ];
  Alcotest.(check int) "count" 6 (Obs.Hist.count h);
  Alcotest.(check int) "sum" (0 + 1 + 1 + 3 + 900 - 7) (Obs.Hist.sum h);
  Alcotest.(check int) "min" (-7) (Obs.Hist.min_value h);
  Alcotest.(check int) "max" 900 (Obs.Hist.max_value h);
  let counts = Obs.Hist.counts h in
  Alcotest.(check int) "bucket 0 holds the values <= 0" 2 counts.(0);
  Alcotest.(check int) "bucket 1 holds the two 1s" 2 counts.(1);
  Alcotest.(check int) "900 has 10 significant bits" 1 counts.(10);
  let h2 = Obs.Hist.create () in
  List.iter (Obs.Hist.record h2) [ 4; 2000 ];
  Obs.Hist.merge ~into:h h2;
  Alcotest.(check int) "merged count" 8 (Obs.Hist.count h);
  Alcotest.(check int) "merged max" 2000 (Obs.Hist.max_value h);
  Alcotest.(check int) "merged min" (-7) (Obs.Hist.min_value h);
  Alcotest.(check int) "merged sum" (898 + 4 + 2000) (Obs.Hist.sum h);
  let empty = Obs.Hist.create () in
  Alcotest.(check (pair int int))
    "empty quantile" (0, 0)
    (Obs.Hist.quantile_bounds empty 0.5);
  Alcotest.(check int) "empty min" 0 (Obs.Hist.min_value empty);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Obs.Hist.mean empty)

(* ---- registry semantics --------------------------------------------------- *)

let test_registry_tiers_and_order () =
  let o = Obs.create () in
  let h = Obs.hist o ~tier:Obs.Det "zz/frames" in
  Obs.Hist.record h 17;
  let c = Obs.counter o ~tier:Obs.Det "aa/rounds" in
  Obs.incr c 3;
  let g = Obs.gauge o ~tier:Obs.Sampled "mm/live" in
  Obs.set_gauge g 5;
  Obs.max_gauge g 2;
  Alcotest.(check int) "max_gauge keeps the peak" 5 (Obs.gauge_value g);
  Obs.max_gauge g 9;
  Alcotest.(check int) "max_gauge raises the peak" 9 (Obs.gauge_value g);
  Alcotest.(check int) "counter accumulates" 3 (Obs.counter_value c);
  (* Canonical order: counters, then gauges, then hists, names sorted. *)
  let lines s = String.split_on_char '\n' (String.trim s) in
  let kinds s =
    List.map
      (fun l -> if String.length l > 13 then String.sub l 9 4 else Alcotest.fail l)
      (lines s)
  in
  Alcotest.(check (list string))
    "kind-major order"
    [ "coun"; "gaug"; "hist" ]
    (kinds (Obs.to_jsonl o));
  (* Tier filtering: the Det export excludes the sampled gauge entirely. *)
  let det = Obs.to_jsonl ~tier:Obs.Det o in
  Alcotest.(check int) "det export has 2 lines" 2 (List.length (lines det));
  Alcotest.(check bool) "sampled gauge excluded from Det" false
    (contains det "mm/live");
  Alcotest.(check bool) "det hist retained" true (contains det "zz/frames");
  (* Get-or-create returns the same instrument; conflicts raise. *)
  Alcotest.(check int) "get-or-create shares state" 3
    (Obs.counter_value (Obs.counter o ~tier:Obs.Det "aa/rounds"));
  Alcotest.check_raises "tier conflict"
    (Invalid_argument
       "Obs: instrument \"aa/rounds\" re-requested with tier sampled (is det)")
    (fun () -> ignore (Obs.counter o ~tier:Obs.Sampled "aa/rounds"));
  Alcotest.check_raises "kind conflict"
    (Invalid_argument "Obs: instrument \"aa/rounds\" is a counter, not a hist")
    (fun () -> ignore (Obs.hist o ~tier:Obs.Det "aa/rounds"));
  (* The export passes its own schema validator. *)
  match Obs.Check.registry_jsonl (Obs.to_jsonl o) with
  | Ok n -> Alcotest.(check int) "validator sees 3 lines" 3 n
  | Error msg -> Alcotest.fail msg

(* ---- the deterministic tier on a real engine workload --------------------- *)

let mk_specs ~n ~sessions ~spacing ~seed =
  List.init sessions (fun k ->
      let inputs =
        let rng = Prng.create (seed + (101 * k)) in
        Workload.clustered_bits rng ~n ~bits:48 ~shared_prefix_bits:16
      in
      Engine.session ~sid:k ~start_round:(spacing * k)
        ~adversary:(Adversary.equivocate ~seed:(seed + (31 * k)))
        (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))

let run_with_obs backend =
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let specs = mk_specs ~n ~sessions:8 ~spacing:2 ~seed:4242 in
  let obs = Obs.create () in
  let outcome =
    match backend with
    | `Sim -> Engine.run_sim ~obs ~n ~t ~corrupt specs
    | `Poll -> Engine.run_poll ~obs ~n ~t ~corrupt specs
  in
  (obs, outcome)

let test_det_tier_identical_across_backends () =
  let obs_sim, o_sim = run_with_obs `Sim in
  let obs_poll, _ = run_with_obs `Poll in
  let det o = Obs.to_jsonl ~tier:Obs.Det o in
  Alcotest.(check string) "Det JSONL: poll = sim" (det obs_sim) (det obs_poll);
  let tr_sim = Obs.Trace.chrome_trace obs_sim in
  Alcotest.(check string) "chrome trace: poll = sim" tr_sim
    (Obs.Trace.chrome_trace obs_poll);
  (* The full export legitimately differs (wall-clock histograms, the poll
     mesh's select waits, the samples); only the Det slice is identical. *)
  Alcotest.(check bool) "poll adds sampled instruments" true
    (Obs.to_jsonl obs_poll <> Obs.to_jsonl obs_sim);
  Alcotest.(check bool) "poll run recorded select waits" true
    (contains (Obs.to_jsonl obs_poll) "poll/select_wait_ns");
  (* Det instruments reproduce the aggregate ledger exactly. *)
  let agg = o_sim.Engine.aggregate in
  let frame_h = Obs.hist obs_sim ~tier:Obs.Det "engine/frame_bytes" in
  Alcotest.(check int) "frame hist sum = ledger frame_bytes"
    agg.Engine.frame_bytes (Obs.Hist.sum frame_h);
  Alcotest.(check int) "frame hist count = ledger frames_sent"
    agg.Engine.frames_sent (Obs.Hist.count frame_h);
  Alcotest.(check int) "rounds counter = ledger engine_rounds"
    agg.Engine.engine_rounds
    (Obs.counter_value (Obs.counter obs_sim ~tier:Obs.Det "engine/rounds"));
  Alcotest.(check int) "frames counter = ledger frames_sent"
    agg.Engine.frames_sent
    (Obs.counter_value (Obs.counter obs_sim ~tier:Obs.Det "engine/frames"));
  Alcotest.(check int) "sessions counter = completed sessions"
    agg.Engine.sessions_completed
    (Obs.counter_value (Obs.counter obs_sim ~tier:Obs.Det "engine/sessions"));
  Alcotest.(check int) "peak_live gauge = ledger peak_live" agg.Engine.peak_live
    (Obs.gauge_value (Obs.gauge obs_sim ~tier:Obs.Det "engine/peak_live"));
  Alcotest.(check int) "live gauge drains to 0 at the end" 0
    (Obs.gauge_value (Obs.gauge obs_sim ~tier:Obs.Det "engine/live"));
  let life_h = Obs.hist obs_sim ~tier:Obs.Det "engine/session_rounds" in
  Alcotest.(check int) "one lifetime recorded per session"
    agg.Engine.sessions_completed (Obs.Hist.count life_h);
  (* Both artifacts pass their own schema validators. *)
  (match Obs.Check.registry_jsonl (det obs_sim) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("Det JSONL schema: " ^ msg));
  match Obs.Check.chrome_trace tr_sim with
  | Ok events -> Alcotest.(check bool) "trace has events" true (events > 0)
  | Error msg -> Alcotest.fail ("chrome trace schema: " ^ msg)

(* ---- differential pin against the two-plane exports ----------------------- *)

(* SHA-256 digests and byte lengths of what the two observability planes
   exported before they were merged, for two fixed runs: the span
   recorder's JSONL followed by the instrument registry's Det JSONL, and the
   Chrome trace rendered from the span recorder. The one recorder must
   reproduce both byte for byte: the span plane and the Det instruments
   keep their values, and probes rendered at export match probes rendered
   when emitted. The digests were re-taken when Π_BA's phase king began
   sending back-references instead of repeated values (bits moved); the
   rounds-and-outputs pins below were taken before that and hold after.
   All were re-taken when FINDPREFIX began agreeing on windows of at most
   κ bits with Π_BA+ itself: the Π_ℤ run keeps its rounds and outputs, and
   each K=8 engine session runs 4–6 rounds fewer (no distribution rounds
   after a short window) with every output unchanged. The Π_ℤ pins were
   re-taken when Π_ℓBA+ began sending codewords only to the parties whose
   root differs from the agreed one: its ext_distribute bits fell from
   52 800 to 17 600, its rounds and outputs held, and the engine run (no
   window longer than κ) did not move. *)
let sim_pi_z_pins =
  ( ("5ebeab66cbb7b7728e1b06dfd987ec45053c8b4edfef6c1c7b9063743348bf60", 84086),
    ("f35b380cd9850735b4cd7480749a58bb4c59304b54e9c8968a5ea1f73cc92a1c", 103069) )

let engine_k8_pins =
  ( ("d7131610eed1d6bc699a20fd83ced89318af70a93c262a1f967fcce4a8317dcf", 391333),
    ("c403f4394c582943a25392cfc9082354c4bf7d7795778acbe2602230982d59a6", 393331) )

let check_pinned name (det_pin, trace_pin) obs =
  let digest s = (Sha256.hex s, String.length s) in
  let pin = Alcotest.(pair string int) in
  Alcotest.check pin (name ^ ": Det JSONL") det_pin
    (digest (Obs.to_jsonl ~tier:Obs.Det obs));
  Alcotest.check pin (name ^ ": chrome trace") trace_pin
    (digest (Obs.Trace.chrome_trace obs))

(* The same two runs' rounds and honest outputs: per session of the engine
   run, its admission and retirement rounds, its round count and its
   outputs. *)
let sim_pi_z_outcome_pin =
  ("176b632624d0908fe6bbf807a0e281667e30fd8de5e42b5e17ab7d9543c5018f", 778)
let engine_k8_outcome_pin =
  ("88c07d52b46636c4a315f7c82c8f42af500176106b4c6d28d9c385e641d5bce7", 994)

let test_pinned_exports () =
  let n = 7 and t = 2 and bits = 1 lsl 9 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs =
    Workload.apply_input_attack Workload.Outlier_high ~corrupt
      (Workload.clustered_bits (Prng.create 14) ~n ~bits ~shared_prefix_bits:(bits / 2))
  in
  let obs = Obs.create () in
  let report =
    Workload.run_int ~obs ~n ~t ~corrupt
      ~adversary:(Adversary.equivocate ~seed:5)
      ~inputs Workload.pi_z.Workload.run
  in
  check_pinned "sim Pi_Z n=7 l=2^9" sim_pi_z_pins obs;
  let digest s = (Sha256.hex s, String.length s) in
  let pin = Alcotest.(pair string int) in
  Alcotest.check pin "sim Pi_Z n=7 l=2^9: rounds and outputs" sim_pi_z_outcome_pin
    (digest
       (String.concat " "
          (string_of_int report.Workload.rounds
          :: List.map Bigint.to_string report.Workload.outputs)));
  List.iter
    (fun (name, backend) ->
      let obs, outcome = run_with_obs backend in
      check_pinned name engine_k8_pins obs;
      Alcotest.check pin (name ^ ": rounds and outputs") engine_k8_outcome_pin
        (digest
           (String.concat "\n"
              (List.map
                 (fun r ->
                   String.concat " "
                     (List.map string_of_int
                        [
                          r.Engine.r_sid;
                          r.Engine.r_admitted_at;
                          r.Engine.r_retired_at;
                          r.Engine.r_metrics.Metrics.rounds;
                        ]
                     @ Array.to_list
                         (Array.map
                            (function Some o -> Bigint.to_string o | None -> "-")
                            r.Engine.r_outputs)))
                 outcome.Engine.sessions))))
    [ ("engine K=8 sim", `Sim); ("engine K=8 poll", `Poll) ]

(* ---- one label stack, with and without a recorder ------------------------- *)

(* Per-session labels of the K=8 engine run on every backend, with and
   without a recorder attached: identical, summing exactly to each session's
   honest bits, and (with a recorder) adding up to the recorder's own label
   table. *)
let test_labels_with_and_without_recorder () =
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let per_session ?obs backend =
    let specs = mk_specs ~n ~sessions:8 ~spacing:2 ~seed:4242 in
    let outcome =
      match backend with
      | `Sim -> Engine.run_sim ?obs ~n ~t ~corrupt specs
      | `Poll -> Engine.run_poll ?obs ~n ~t ~corrupt specs
    in
    List.map
      (fun r ->
        let m = r.Engine.r_metrics in
        (r.Engine.r_sid, m.Metrics.honest_bits, Metrics.labels m))
      outcome.Engine.sessions
  in
  let row = Alcotest.(list (triple int int (list (pair string int)))) in
  let reference = per_session `Sim in
  List.iter
    (fun (name, backend) ->
      let bare = per_session backend in
      let obs = Obs.create () in
      let recorded = per_session ~obs backend in
      Alcotest.check row (name ^ ": labels without a recorder = sim") reference bare;
      Alcotest.check row (name ^ ": labels with a recorder = without") bare recorded;
      List.iter
        (fun (sid, bits, labels) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: session %d has several labels" name sid)
            true
            (List.length labels > 1);
          Alcotest.(check int)
            (Printf.sprintf "%s: session %d labels sum to honest bits" name sid)
            bits
            (List.fold_left (fun acc (_, b) -> acc + b) 0 labels))
        bare;
      let summed = Hashtbl.create 16 in
      List.iter
        (fun (_, _, labels) ->
          List.iter
            (fun (l, b) ->
              Hashtbl.replace summed l
                (b + Option.value ~default:0 (Hashtbl.find_opt summed l)))
            labels)
        bare;
      let summed =
        Hashtbl.fold (fun l b acc -> (l, b) :: acc) summed []
        |> List.sort (fun (la, a) (lb, b) -> if a <> b then compare b a else compare la lb)
      in
      Alcotest.(check (list (pair string int)))
        (name ^ ": recorder label table = sessions' labels summed")
        summed (Obs.label_bits obs))
    [ ("sim", `Sim); ("poll", `Poll) ]

(* The loop's bits-only session handle ([session None]) against one on a full
   recorder fed the same events: the same counts and label table — a label is
   listed once a message was sent under it, even an empty one. *)
let test_bits_only_session () =
  let feed o =
    for party = 0 to 2 do
      Obs.push o ~party ~round:0 ~label:"outer";
      Obs.message o ~party ~dst:((party + 1) mod 3) ~round:1
        ~timeline_round:0 ~bytes:(3 + party) ~byzantine:false;
      Obs.push o ~party ~round:1 ~label:"empty";
      Obs.message o ~party ~dst:((party + 2) mod 3) ~round:2
        ~timeline_round:1 ~bytes:0 ~byzantine:false;
      Obs.pop o ~party ~round:2;
      Obs.push o ~party ~round:2 ~label:"silent";
      Obs.probe o ~party ~round:2 ~byzantine:false ~key:"v"
        ~value:(Bitstring.of_int party);
      Obs.pop o ~party ~round:3;
      Obs.pop o ~party ~round:3;
      Obs.message o ~party ~dst:0 ~round:4 ~timeline_round:3
        ~bytes:2 ~byzantine:(party = 2);
      Obs.finish o ~party ~round:4
    done
  in
  let full = Obs.create () in
  let bare = Obs.session None ~session:5 ~n:3 in
  feed (Obs.session (Some full) ~session:5 ~n:3);
  feed bare;
  let labels = Alcotest.(list (pair string int)) in
  Alcotest.check labels "full recorder labels"
    [ ("outer", 8 * 12); ("(unlabeled)", 8 * 4); ("empty", 0) ]
    (Obs.label_bits full);
  Alcotest.check labels "bits-only labels = full" (Obs.label_bits full)
    (Obs.session_label_bits bare);
  let c = Obs.session_counts bare in
  Alcotest.(check (list int)) "counts: honest bits/msgs, byz bits/msgs"
    [ 8 * 16; 8; 16; 1 ]
    [ c.Obs.honest_bits; c.Obs.honest_msgs; c.Obs.byz_bits; c.Obs.byz_msgs ];
  Alcotest.(check bool) "counts = full" true (Obs.counts full = c);
  Alcotest.(check int) "session query" (8 * 16) (Obs.honest_bits full ~session:5);
  Alcotest.check_raises "a session recorded twice"
    (Invalid_argument "Obs.session: session 5 already recorded") (fun () ->
      ignore (Obs.session (Some full) ~session:5 ~n:3));
  let kinds o =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l {|{"kind":"%[a-z]"|} Fun.id)
      (String.split_on_char '\n' (Obs.to_jsonl o))
  in
  Alcotest.(check bool) "full keeps rounds, spans and probes" true
    (List.for_all (fun k -> List.mem k (kinds full)) [ "round"; "span"; "probe" ]);
  Alcotest.(check int) "no message events without ~messages" 0
    (List.length (Obs.messages full))

(* [Obs.sent] against one [Obs.message] per entry, on a seeded script of
   spans and recipient-major round matrices (self slots, silence, empty
   payloads, a byzantine sender): the export, message events, counts and
   label table agree for bits-only handles, a span-plane recorder and one
   that keeps messages. Returns the sessions' handles. *)
let feed_rounds ~per_sender o seed =
  let rng = Prng.create seed in
  let n = 4 and handles = ref [] in
  for session = 0 to 1 do
    let o = Obs.session o ~session ~n in
    handles := o :: !handles;
    for round = 1 to 6 do
      let inbound =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                if Prng.int rng 3 = 0 then None
                else Some (String.make (Prng.int rng 5) 'x')))
      in
      for party = 0 to n - 1 do
        (match Prng.int rng 4 with
        | 0 ->
            Obs.push o ~party ~round:(round - 1)
              ~label:(Printf.sprintf "l%d" (Prng.int rng 3))
        | 1 -> Obs.pop o ~party ~round:(round - 1)
        | _ -> ());
        let byzantine = party = n - 1 and timeline_round = round + (2 * session) in
        let msgs = ref 0 and bytes = ref 0 in
        Array.iteri
          (fun dst row ->
            match row.(party) with
            | Some m when dst <> party ->
                if per_sender then begin
                  incr msgs;
                  bytes := !bytes + String.length m
                end
                else
                  Obs.message o ~party ~dst ~round ~timeline_round
                    ~bytes:(String.length m) ~byzantine
            | Some _ | None -> ())
          inbound;
        if per_sender then
          Obs.sent o ~party ~round ~timeline_round ~byzantine ~msgs:!msgs
            ~bytes:!bytes inbound
      done
    done;
    for party = 0 to n - 1 do
      Obs.finish o ~party ~round:6
    done
  done;
  List.rev !handles

let prop_sent_equals_messages =
  QCheck.Test.make ~name:"sent = one message per entry" ~count:100
    QCheck.small_nat (fun seed ->
      List.for_all
        (fun make ->
          let per_msg = make () and per_sender = make () in
          let handles_msg = feed_rounds ~per_sender:false per_msg seed in
          let handles_sender = feed_rounds ~per_sender:true per_sender seed in
          List.for_all2
            (fun a b ->
              Obs.session_counts a = Obs.session_counts b
              && Obs.session_label_bits a = Obs.session_label_bits b)
            handles_msg handles_sender
          &&
          match (per_msg, per_sender) with
          | Some per_msg, Some per_sender ->
              Obs.to_jsonl per_msg = Obs.to_jsonl per_sender
              && Obs.messages_csv per_msg = Obs.messages_csv per_sender
              && Obs.messages per_msg = Obs.messages per_sender
              && Obs.counts per_msg = Obs.counts per_sender
              && Obs.label_bits per_msg = Obs.label_bits per_sender
          | _ -> true)
        [
          (fun () -> None);
          (fun () -> Some (Obs.create ()));
          (fun () -> Some (Obs.create ~messages:true ()));
        ])

(* ---- samples: the recorder's time series ----------------------------------- *)

(* The sample lines of an export, in export order, each as (idx, round,
   live, the names of its readings). *)
let sample_lines export =
  List.filter_map
    (fun line ->
      let open Obs.Json in
      match parse line with
      | Ok
          (Obj
            (("kind", Str "sample")
            :: ("idx", Num i) :: ("round", Num r) :: ("live", Num l) :: readings)) ->
          Some (int_of_float i, int_of_float r, int_of_float l, List.map fst readings)
      | _ -> None)
    (String.split_on_char '\n' export)

let gc_fields =
  [
    "minor_words"; "promoted_words"; "major_words"; "minor_collections";
    "major_collections"; "heap_words"; "compactions"; "rss_bytes";
  ]

let poll_fields =
  [
    "poll_rounds"; "poll_frames"; "poll_parked"; "poll_max_backlog";
    "select_wait_mean_ns"; "select_wait_max_ns";
  ]

let test_samples () =
  let o = Obs.create () in
  ignore (Obs.counter o ~tier:Obs.Det "engine/rounds");
  Obs.sample o ~round:16 ~live:3 [ ("b", 2); ("a", -1) ];
  Obs.sample o ~round:0 ~live:1 [];
  let full = Obs.to_jsonl o in
  Alcotest.(check (list string))
    "samples after the instruments, in recording order, readings as given"
    [
      {|{"kind":"counter","tier":"det","name":"engine/rounds","value":0}|};
      {|{"kind":"sample","idx":0,"round":16,"live":3,"b":2,"a":-1}|};
      {|{"kind":"sample","idx":1,"round":0,"live":1}|};
    ]
    (String.split_on_char '\n' (String.trim full));
  Alcotest.(check bool) "Det export leaves samples out" false
    (contains (Obs.to_jsonl ~tier:Obs.Det o) "sample");
  Alcotest.(check int) "Sampled export keeps them" 2
    (List.length (sample_lines (Obs.to_jsonl ~tier:Obs.Sampled o)));
  Alcotest.(check (result int string))
    "registry check" (Ok 3) (Obs.Check.registry_jsonl full);
  Alcotest.(check (result int string))
    "engine check" (Ok 3) (Obs.Check.engine_jsonl full);
  Alcotest.(check bool) "engine check wants a sample" true
    (Result.is_error (Obs.Check.engine_jsonl (Obs.to_jsonl ~tier:Obs.Det o)));
  (* Both engine backends sample every 16 engine rounds and once at run end;
     over poll each sample also carries the mesh's readings. *)
  let n = 4 and t = 1 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  List.iter
    (fun (name, run, fields) ->
      let obs = Obs.create () in
      let outcome = run ~obs (mk_specs ~n ~sessions:2 ~spacing:3 ~seed:77) in
      let rounds = outcome.Engine.aggregate.Engine.engine_rounds in
      let samples = sample_lines (Obs.to_jsonl obs) in
      Alcotest.(check (list (pair int int)))
        (name ^ ": idx and rounds")
        (List.mapi (fun i r -> (i, r))
           (List.filter (fun r -> r mod 16 = 0) (List.init rounds Fun.id) @ [ rounds ]))
        (List.map (fun (i, r, _, _) -> (i, r)) samples);
      List.iter
        (fun (_, r, live, names) ->
          Alcotest.(check (list string)) (Printf.sprintf "%s: round %d readings" name r)
            fields names;
          if r = rounds then Alcotest.(check int) (name ^ ": none live at the end") 0 live)
        samples)
    [
      ("sim", (fun ~obs specs -> Engine.run_sim ~obs ~n ~t ~corrupt specs), gc_fields);
      ( "poll",
        (fun ~obs specs -> Engine.run_poll ~obs ~n ~t ~corrupt specs),
        gc_fields @ poll_fields );
    ]

(* ---- the span report ------------------------------------------------------ *)

(* Twelve labels, label [k] carrying k+1 bytes: the report's label table
   lists the ten costliest, costliest first. *)
let test_report_top_labels () =
  let o = Obs.create () in
  let h = Obs.session (Some o) ~session:0 ~n:1 in
  for k = 0 to 11 do
    let label = Printf.sprintf "label-%02d" k in
    Obs.push h ~party:0 ~round:k ~label;
    Obs.message h ~party:0 ~dst:1 ~round:(k + 1) ~timeline_round:(k + 1)
      ~bytes:(k + 1) ~byzantine:false;
    Obs.pop h ~party:0 ~round:(k + 1)
  done;
  let lines = String.split_on_char '\n' (Format.asprintf "%a" Obs.pp_report o) in
  (* The table: the indented lines after its heading, as (rank, label). *)
  let rec table = function
    | [] -> Alcotest.fail "no label table in the report"
    | l :: rest when String.starts_with ~prefix:"top labels" l -> rows rest
    | _ :: rest -> table rest
  and rows = function
    | l :: rest when String.starts_with ~prefix:"  " l ->
        Scanf.sscanf l " %d. %s" (fun rank label -> (rank, label)) :: rows rest
    | _ -> []
  in
  Alcotest.(check (list (pair int string)))
    "ten rows, costliest first"
    (List.init 10 (fun i -> (i + 1, Printf.sprintf "label-%02d" (11 - i))))
    (table lines)

(* ---- the CLI's exports ------------------------------------------------------ *)

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/ca_cli.exe"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let cli_code args =
  if not (Sys.file_exists cli) then
    Alcotest.fail "ca_cli.exe missing — check the (deps ...) in test/dune";
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" cli args)

(* [run --csv --telemetry] keeps one recorder, made with message events on:
   it writes the same CSV as [run --csv] alone and the same Det JSONL as
   [run --telemetry] alone. *)
let test_run_one_recorder () =
  let tmp ext = Filename.temp_file "ca-obs-run" ext in
  let both_csv = tmp ".csv" and both_jsonl = tmp ".jsonl" in
  let csv = tmp ".csv" and jsonl = tmp ".jsonl" in
  let scenario = "run -n 7 -t 2 --adversary equivocate --seed 5" in
  let q = Filename.quote in
  List.iter
    (fun args -> Alcotest.(check int) args 0 (cli_code (scenario ^ " " ^ args)))
    [
      Printf.sprintf "--csv %s --telemetry %s" (q both_csv) (q both_jsonl);
      Printf.sprintf "--csv %s" (q csv);
      Printf.sprintf "--telemetry %s" (q jsonl);
    ];
  let take p =
    let s = read_file p in
    Sys.remove p;
    s
  in
  let both_csv = take both_csv and both_jsonl = take both_jsonl in
  Alcotest.(check string) "CSV as with --csv alone" (take csv) both_csv;
  Alcotest.(check string) "JSONL as with --telemetry alone" (take jsonl) both_jsonl;
  Alcotest.(check bool) "CSV has rows" true
    (List.length (String.split_on_char '\n' both_csv) > 2)

(* [obs --check DIR] accepts what [engine --obs-dir DIR] exported and exits 1
   on a corrupted export. *)
let test_obs_check_cli () =
  let dir = Filename.temp_file "ca-obs-dir" "" in
  Sys.remove dir;
  let files = [ "obs.jsonl"; "obs_det.jsonl"; "trace.json" ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.file_exists p then Sys.remove p)
        files;
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      Alcotest.(check int) "engine --obs-dir" 0
        (cli_code
           (Printf.sprintf
              "engine --backend poll --sessions 2 -n 4 -t 1 --obs-dir %s"
              (Filename.quote dir)));
      Alcotest.(check int) "obs --check accepts the export" 0
        (cli_code ("obs --check " ^ Filename.quote dir));
      let full = Filename.concat dir "obs.jsonl" in
      let export = read_file full in
      Out_channel.with_open_bin full (fun oc ->
          output_string oc (read_file (Filename.concat dir "obs_det.jsonl")));
      Alcotest.(check int) "obs --check rejects an obs.jsonl without samples" 1
        (cli_code ("obs --check " ^ Filename.quote dir));
      Out_channel.with_open_bin full (fun oc -> output_string oc export);
      Out_channel.with_open_bin (Filename.concat dir "trace.json") (fun oc ->
          output_string oc "{not json");
      Alcotest.(check int) "obs --check rejects a corrupted trace" 1
        (cli_code ("obs --check " ^ Filename.quote dir)))

(* ---- schema validators reject malformed input ----------------------------- *)

let test_check_rejects_garbage () =
  let fails = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "registry: not json" true
    (fails (Obs.Check.registry_jsonl "not json\n"));
  Alcotest.(check bool) "registry: wrong kind" true
    (fails (Obs.Check.registry_jsonl "{\"kind\":\"sampler\",\"idx\":0}\n"));
  Alcotest.(check bool) "registry: sample without live" true
    (fails (Obs.Check.registry_jsonl "{\"kind\":\"sample\",\"idx\":0,\"round\":1}\n"));
  Alcotest.(check bool) "registry: non-int reading" true
    (fails
       (Obs.Check.registry_jsonl
          "{\"kind\":\"sample\",\"idx\":0,\"round\":1,\"live\":0,\"rss\":1.5}\n"));
  Alcotest.(check bool) "trace: no traceEvents" true
    (fails (Obs.Check.chrome_trace "{\"foo\":[]}"));
  Alcotest.(check bool) "trace: bad phase" true
    (fails (Obs.Check.chrome_trace "{\"traceEvents\":[{\"ph\":\"Q\"}]}"));
  (* Lines a permissive reader used to accept: a \u escape without four hex
     digits, an escape JSON does not define, and an unknown tier. *)
  List.iter
    (fun (what, line) ->
      Alcotest.(check bool) ("registry: " ^ what) true
        (fails (Obs.Check.registry_jsonl line)))
    [
      ("\\uZZZZ in a name", {|{"kind":"counter","tier":"det","name":"a\uZZZZ","value":1}|});
      ("\\q in a name", {|{"kind":"counter","tier":"det","name":"a\qb","value":1}|});
      ("unknown tier", {|{"kind":"counter","tier":"bogus","name":"a","value":1}|});
      ("probe value not hex", {|{"kind":"probe","session":0,"party":0,"round":0,"byzantine":false,"key":"k","iter":0,"value":"xyz"}|});
      ("span without bits", {|{"kind":"span","session":0,"party":0,"depth":0,"path":"p","label":"l","enter":0,"exit":1,"msgs":0}|});
    ]

(* ---- the span plane: ledger equality, determinism, convergence ------------ *)

let n = 7
let t = 2
let bits = 64

let scenario ?(attack = Workload.Outlier_high) ?(bits = bits) ~seed () =
  let rng = Prng.create seed in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs =
    Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)
  in
  (corrupt, Workload.apply_input_attack attack ~corrupt inputs)

let test_ledger_sim () =
  let corrupt, inputs = scenario ~seed:3 () in
  let tm = Obs.create () in
  let report =
    Workload.run_int ~obs:tm ~n ~t ~corrupt
      ~adversary:(Adversary.equivocate ~seed:5)
      ~inputs Workload.pi_z.Workload.run
  in
  Alcotest.check Alcotest.int "span bits = Metrics.honest_bits"
    report.Workload.honest_bits
    (Obs.honest_bits_total tm);
  Alcotest.check Alcotest.int "per-session query agrees"
    report.Workload.honest_bits
    (Obs.honest_bits tm ~session:0)

let test_ledger_poll_and_cross_backend () =
  let n = 4 and t = 1 in
  let inputs = Array.init n (fun i -> Bigint.of_int (70 + i)) in
  let protocol ctx = Convex.agree_int ctx inputs.(ctx.Ctx.me) in
  let corrupt = Array.make n false in
  let tm_poll = Obs.create () in
  let polled =
    match
      (Engine.run_poll ~obs:tm_poll ~n ~t ~corrupt
         [ Engine.session ~sid:0 protocol ])
        .Engine.sessions
    with
    | [ r ] -> r
    | _ -> Alcotest.fail "one session expected"
  in
  Alcotest.check Alcotest.int "span bits = Metrics.honest_bits"
    polled.Engine.r_metrics.Metrics.honest_bits
    (Obs.honest_bits_total tm_poll);
  (* The same protocol as a one-session simulator run: both go through the
     same round loop, so the exports agree byte for byte. *)
  let tm_sim = Obs.create () in
  let outcome =
    Sim.run ~obs:tm_sim ~n ~t
      ~corrupt:(Array.make n false)
      ~adversary:Adversary.passive protocol
  in
  Alcotest.check Alcotest.int "sim ledger"
    outcome.Sim.metrics.Metrics.honest_bits
    (Obs.honest_bits_total tm_sim);
  Alcotest.check Alcotest.string "sim and poll export identical JSONL"
    (Obs.to_jsonl ~tier:Obs.Det tm_sim)
    (Obs.to_jsonl ~tier:Obs.Det tm_poll);
  Array.iteri
    (fun i o ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "party %d outputs agree" i)
        true
        (Bigint.equal (Option.get o) (Option.get outcome.Sim.outputs.(i))))
    polled.Engine.r_outputs

let test_ledger_engine_sim () =
  let corrupt = Workload.spread_corrupt ~n ~t in
  let sessions = 4 in
  let inputs =
    Array.init sessions (fun k ->
        let rng = Prng.create (11 + k) in
        Workload.apply_input_attack Workload.Outlier_high ~corrupt
          (Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)))
  in
  (* Non-contiguous sids and staggered arrivals: the ledger must hold per
     session id, not per input slot. *)
  let specs =
    List.init sessions (fun k ->
        Engine.session ~start_round:(k * 2)
          ~adversary:(Adversary.equivocate ~seed:(50 + k))
          ~sid:(k * 3)
          (fun ctx -> Convex.agree_int ctx inputs.(k).(ctx.Ctx.me)))
  in
  let tm = Obs.create () in
  let outcome = Engine.run_sim ~obs:tm ~n ~t ~corrupt specs in
  List.iter
    (fun r ->
      Alcotest.check Alcotest.int
        (Printf.sprintf "session %d ledger" r.Engine.r_sid)
        r.Engine.r_metrics.Metrics.honest_bits
        (Obs.honest_bits tm ~session:r.Engine.r_sid))
    outcome.Engine.sessions;
  Alcotest.check Alcotest.int "aggregate ledger"
    outcome.Engine.aggregate.Engine.honest_bits_total
    (Obs.honest_bits_total tm);
  Alcotest.check (Alcotest.list Alcotest.int) "session ids recorded"
    [ 0; 3; 6; 9 ] (Obs.sessions tm)

let test_ledger_engine_poll () =
  let n = 4 and t = 1 in
  let sessions = 4 in
  let specs =
    List.init sessions (fun k ->
        Engine.session ~start_round:k ~sid:k (fun ctx ->
            Convex.agree_int ctx (Bigint.of_int (100 + (10 * k) + ctx.Ctx.me))))
  in
  let tm = Obs.create () in
  let outcome =
    Engine.run_poll ~obs:tm ~n ~t ~corrupt:(Array.make n false) specs
  in
  List.iter
    (fun r ->
      Alcotest.check Alcotest.int
        (Printf.sprintf "session %d ledger" r.Engine.r_sid)
        r.Engine.r_metrics.Metrics.honest_bits
        (Obs.honest_bits tm ~session:r.Engine.r_sid))
    outcome.Engine.sessions;
  Alcotest.check Alcotest.int "aggregate ledger"
    outcome.Engine.aggregate.Engine.honest_bits_total
    (Obs.honest_bits_total tm)

(* ---- canonical export ----------------------------------------------------- *)

let test_jsonl_deterministic () =
  let go () =
    let corrupt, inputs = scenario ~seed:9 () in
    let tm = Obs.create () in
    Obs.set_meta tm "seed" "9";
    ignore
      (Workload.run_int ~obs:tm ~n ~t ~corrupt
         ~adversary:(Adversary.equivocate ~seed:9)
         ~inputs Workload.pi_z.Workload.run);
    Obs.to_jsonl ~tier:Obs.Det tm
  in
  let a = go () and b = go () in
  Alcotest.check Alcotest.bool "two runs, byte-identical JSONL" true
    (String.equal a b);
  (* Minimal schema sanity on the canonical export: one total line, every
     line a JSON object with a "kind" key. *)
  let lines = String.split_on_char '\n' (String.trim a) in
  List.iter
    (fun l ->
      Alcotest.check Alcotest.bool "line is an object with kind" true
        (String.length l > 10
        && l.[0] = '{'
        && l.[String.length l - 1] = '}'
        && String.sub l 0 9 = {|{"kind":"|}))
    lines;
  let totals =
    List.filter
      (fun l -> String.sub l 0 16 = {|{"kind":"total",|})
      lines
  in
  Alcotest.check Alcotest.int "exactly one total line" 1 (List.length totals)

(* ---- convergence probes --------------------------------------------------- *)

let widths curve = List.map (fun (lo, hi) -> Bigint.sub hi lo) curve

let check_monotone name curve =
  Alcotest.check Alcotest.bool (name ^ ": probe fired") true (curve <> []);
  List.iter
    (fun w ->
      Alcotest.check Alcotest.bool (name ^ ": width >= 0") true
        (Bigint.compare w Bigint.zero >= 0))
    (widths curve);
  let rec mono = function
    | a :: (b :: _ as rest) -> Bigint.compare b a <= 0 && mono rest
    | _ -> true
  in
  Alcotest.check Alcotest.bool (name ^ ": monotone non-increasing") true
    (mono (widths curve))

let convergence_of ?bits ~protocol ~adversary ~attack ~key ~seed () =
  let corrupt, inputs = scenario ~attack ?bits ~seed () in
  let tm = Obs.create () in
  ignore
    (Workload.run_int ~obs:tm ~n ~t ~corrupt ~adversary ~inputs protocol);
  (tm, Obs.convergence tm ~session:0 ~key)

let test_convergence_find_prefix () =
  (* bits = 32 < n^2 = 49: Pi_Z takes the short regime, which binary-searches
     bit windows via FINDPREFIX. *)
  let tm, honest_curve =
    convergence_of ~bits:32 ~protocol:Workload.pi_z.Workload.run
      ~adversary:Adversary.passive ~attack:Workload.Honest_inputs
      ~key:"find_prefix.v" ~seed:21 ()
  in
  check_monotone "find_prefix/honest" honest_curve;
  Alcotest.check Alcotest.bool "key listed" true
    (List.mem "find_prefix.v" (Obs.probe_keys tm ~session:0));
  let _, adv_curve =
    convergence_of ~bits:32 ~protocol:Workload.pi_z.Workload.run
      ~adversary:(Adversary.equivocate ~seed:5)
      ~attack:Workload.Outlier_high ~key:"find_prefix.v" ~seed:22 ()
  in
  check_monotone "find_prefix/equivocate" adv_curve

let test_convergence_find_prefix_blocks () =
  (* bits = 64 > n^2 = 49: Pi_Z takes the long regime, which searches over
     blocks via FINDPREFIXBLOCKS. *)
  let _, honest_curve =
    convergence_of ~protocol:Workload.pi_z.Workload.run
      ~adversary:Adversary.passive ~attack:Workload.Honest_inputs
      ~key:"find_prefix_blocks.v" ~seed:23 ()
  in
  check_monotone "find_prefix_blocks/honest" honest_curve;
  let _, adv_curve =
    convergence_of ~protocol:Workload.pi_z.Workload.run
      ~adversary:(Adversary.equivocate ~seed:6)
      ~attack:Workload.Outlier_high ~key:"find_prefix_blocks.v" ~seed:24 ()
  in
  check_monotone "find_prefix_blocks/equivocate" adv_curve

let test_convergence_high_cost_ca () =
  let protocol = (Workload.high_cost_ca ~bits).Workload.run in
  let _, honest_curve =
    convergence_of ~protocol ~adversary:Adversary.passive
      ~attack:Workload.Honest_inputs ~key:"high_cost_ca.current" ~seed:31 ()
  in
  check_monotone "high_cost_ca/honest" honest_curve;
  (* The terminal probe fires on exit: honest estimates have converged. *)
  (match List.rev honest_curve with
  | (lo, hi) :: _ ->
      Alcotest.check Alcotest.bool "agreement at exit" true (Bigint.equal lo hi)
  | [] -> ());
  let _, adv_curve =
    convergence_of ~protocol
      ~adversary:(Adversary.equivocate ~seed:5)
      ~attack:Workload.Outlier_high ~key:"high_cost_ca.current" ~seed:32 ()
  in
  check_monotone "high_cost_ca/equivocate" adv_curve

(* Values up to 256 bits print in decimal (the CLI-summary and trace pins
   stay put); longer ones as a summary built in O(ℓ). A 2^20-bit value must
   print within one allocated byte per bit: decimal is quadratic. The window
   counts as bench/main.ml's [alloc_bytes] does, [Gc.minor_words] plus the
   major words: on OCaml 5.1 [Gc.allocated_bytes] drops part of the minor
   heap's current allocation, so a delta of it can read the preceding
   calls' buffers too (1.2 MB for this call when the suite runs alone). The
   two summary checks above are the warm-up. *)
let test_show_value () =
  let check name want v = Alcotest.(check string) name want (Obs.show_value v) in
  let b256 = Bigint.pred (Bigint.pow2 256) in
  check "256 bits: decimal" (Bigint.to_string b256) b256;
  check "negative 256 bits: decimal" (Bigint.to_string (Bigint.neg b256)) (Bigint.neg b256);
  check "small: decimal" "-42" (Bigint.of_int (-42));
  let l = 1 lsl 20 in
  let v = Bigint.succ (Bigint.pow2 (l - 1)) in
  let be = String.init (l / 8) (fun i -> if i = 0 then '\x80' else if i = (l / 8) - 1 then '\x01' else '\x00') in
  let want sign =
    Printf.sprintf "%s0x8000000000000000...0000000000000001 (%d bits, sha256 %s)" sign l
      (Sha256.hex be)
  in
  check "2^20 bits: summary" (want "") v;
  check "negative 2^20 bits: summary" (want "-") (Bigint.neg v);
  let words () =
    let _, _, major = Gc.counters () in
    Gc.minor_words () +. major
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (Obs.show_value v));
  let bytes = (words () -. w0) *. float_of_int (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f bytes <= %d (one per bit)" bytes l)
    true
    (bytes <= float_of_int l)

let suite =
  [
    Alcotest.test_case "show_value: decimal to 256 bits, O(l) past it" `Quick
      test_show_value;
    Alcotest.test_case "bucket bounds monotone and contiguous" `Quick
      test_bucket_bounds_monotone;
    Alcotest.test_case "bucket boundaries map to themselves" `Quick
      test_bucket_boundaries_roundtrip;
    QCheck_alcotest.to_alcotest prop_bucket_total;
    QCheck_alcotest.to_alcotest prop_quantile_brackets;
    Alcotest.test_case "hist counts, quantile edges, merge" `Quick
      test_hist_counts_and_merge;
    Alcotest.test_case "registry tiers, order, conflicts" `Quick
      test_registry_tiers_and_order;
    Alcotest.test_case "Det tier byte-identical across sim/poll"
      `Quick test_det_tier_identical_across_backends;
    Alcotest.test_case "differential pin: one recorder = two-plane exports"
      `Quick test_pinned_exports;
    Alcotest.test_case "labels: one stack with and without a recorder" `Quick
      test_labels_with_and_without_recorder;
    Alcotest.test_case "bits-only session recorder: counts and labels only"
      `Quick test_bits_only_session;
    Alcotest.test_case "samples: order, tier, both backends" `Quick
      test_samples;
    Alcotest.test_case "report lists the ten costliest labels" `Quick
      test_report_top_labels;
    Alcotest.test_case "run: one recorder for --csv and --telemetry" `Quick
      test_run_one_recorder;
    Alcotest.test_case "obs --check: engine export, corrupted" `Quick
      test_obs_check_cli;
    Alcotest.test_case "schema validators reject malformed input" `Quick
      test_check_rejects_garbage;
    Alcotest.test_case "ledger: sim" `Quick test_ledger_sim;
    Alcotest.test_case "ledger: poll + cross-backend JSONL" `Quick
      test_ledger_poll_and_cross_backend;
    Alcotest.test_case "ledger: engine sim (K=4)" `Quick test_ledger_engine_sim;
    Alcotest.test_case "ledger: engine poll (K=4)" `Quick
      test_ledger_engine_poll;
    Alcotest.test_case "jsonl deterministic" `Quick test_jsonl_deterministic;
    Alcotest.test_case "convergence: find_prefix" `Quick
      test_convergence_find_prefix;
    Alcotest.test_case "convergence: find_prefix_blocks" `Quick
      test_convergence_find_prefix_blocks;
    Alcotest.test_case "convergence: high_cost_ca" `Quick
      test_convergence_high_cost_ca;
    QCheck_alcotest.to_alcotest prop_sent_equals_messages;
  ]
