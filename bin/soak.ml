(* soak — duration-bounded robustness soak of the session engine.

   Runs engine waves until the wall-clock budget is spent. Every wave draws
   a random configuration (n, t, corrupt set) and a batch of sessions with
   mixed protocols, workload families, input attacks and message
   adversaries, admitted at staggered rounds so sessions arrive and retire
   mid-run. Each wave executes on the chosen backend (the event-driven poll
   transport by default), every session is checked against Definition 1,
   each wave records into a fresh obs recorder (so span memory is bounded
   by one wave; the soak-wide histograms are folded from each wave's, and
   the JSONL export is sized on a subset of waves), and peak RSS is
   asserted against a ceiling after every wave. Any violation prints a
   reproduction line (everything derives from the wave seed) and fails the
   process.

     dune exec bin/soak.exe                        (60 s, poll backend)
     dune exec bin/soak.exe -- --smoke             (~10 s, for make check)
     dune exec bin/soak.exe -- --duration 600 --backend sim --seed 7 *)

open Net

type cfg = {
  duration : float;
  backend : string;
  seed : int;
  wave_cap : int;  (* most sessions in one wave *)
  max_rss_mb : int;
}

(* The wave's JSONL export is sized on every [telemetry_every]th wave. *)
let telemetry_every = 5

let default_cfg =
  {
    duration = 60.0;
    backend = "poll";
    seed = 1;
    wave_cap = 48;
    max_rss_mb = 2048;
  }

let usage oc =
  output_string oc
    "usage: soak [--duration SECS] [--smoke] [--backend sim|poll] [--seed N]\n\
    \            [--max-rss-mb MB]\n\n\
     Duration-bounded engine soak: mixed workloads, staggered admission and\n\
     retirement, Definition 1 checked per session, one obs recorder per\n\
     wave, an obs health snapshot printed per wave, peak RSS asserted\n\
     after every wave. A wave runs up to 48 sessions (12 under --smoke);\n\
     every 5th wave's JSONL export is sized.\n\n\
    \  --duration SECS      wall-clock budget (default 60)\n\
    \  --smoke              ~10 s run for CI (duration 8, smaller waves)\n\
    \  --backend NAME       sim | poll (default poll)\n\
    \  --seed N             master seed (default 1)\n\
    \  --max-rss-mb MB      peak-RSS ceiling (default 2048)\n"

let bad fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      usage stderr;
      exit 2)
    fmt

let parse_int name v =
  match int_of_string_opt v with
  | Some i when i > 0 -> i
  | _ -> bad "%s expects a positive integer, got %S" name v

let rec parse cfg = function
  | [] -> cfg
  | "--smoke" :: rest ->
      parse { cfg with duration = 8.0; wave_cap = 12 } rest
  | "--duration" :: v :: rest -> (
      match float_of_string_opt v with
      | Some d when d > 0.0 -> parse { cfg with duration = d } rest
      | _ -> bad "--duration expects a positive number, got %S" v)
  | "--backend" :: v :: rest -> parse { cfg with backend = v } rest
  | "--seed" :: v :: rest -> parse { cfg with seed = parse_int "--seed" v } rest
  | "--max-rss-mb" :: v :: rest ->
      parse { cfg with max_rss_mb = parse_int "--max-rss-mb" v } rest
  | ("--help" | "-h") :: _ ->
      usage stdout;
      exit 0
  | [ flag ]
    when List.mem flag
           [ "--duration"; "--backend"; "--seed"; "--max-rss-mb" ] ->
      bad "%s expects a value" flag
  | arg :: _ -> bad "unknown argument %S" arg

(* ---- one wave ------------------------------------------------------------- *)

type wave_report = {
  w_sessions : int;
  w_rounds : int;
  w_frames_saved : int;
  w_frame_bytes : int;
  w_minor_words : float;  (* minor-heap words allocated running the wave *)
  w_telemetry_bytes : int;  (* JSONL export size; 0 on unsampled waves *)
  w_failures : string list;
}

(* One session's random draw: inputs (workload family + input attack),
   protocol wide enough for the inputs, message adversary. Deterministic in
   [seed].

   [d_stats] is only [Some _] for adaptive sessions: one fast-path record per
   party. [d_resolving] says whether the workload's honest inputs are ordered
   by their top 128 bits — only then is the adaptive fast path obliged to
   engage on a zero-fault wave (clustered inputs with long shared prefixes
   tie on the truncated order key and safely fall back). *)
type session_draw = {
  d_inputs : Bigint.t array;
  d_proto : Workload.protocol;
  d_adversary : Adversary.t;
  d_describe : string;
  d_stats : Adaptive.stats array option;
  d_resolving : bool;
}

let draw_session ~corrupt ~n ~seed =
  let rng = Prng.create seed in
  let workload_name, inputs =
    match Prng.int rng 4 with
    | 0 -> ("sensors", Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:3)
    | 1 ->
        ( "clustered",
          Workload.clustered_bits rng ~n ~bits:(32 + Prng.int rng 200)
            ~shared_prefix_bits:(Prng.int rng 32) )
    | 2 -> ("uniform", Workload.uniform_bits rng ~n ~bits:(8 + Prng.int rng 64))
    | _ ->
        ( "timestamps",
          Workload.timestamps rng ~n ~now_ns:"1783425600000000000"
            ~skew_ns:(1 + Prng.int rng 100000) )
  in
  let attack =
    List.nth Workload.input_attacks (Prng.int rng (List.length Workload.input_attacks))
  in
  let inputs = Workload.apply_input_attack attack ~corrupt inputs in
  (* Wide enough that the fixed-width comparators never clamp an input. *)
  let bits =
    Array.fold_left (fun acc v -> max acc (Bigint.bit_length v)) 64 inputs + 1
  in
  let proto_idx = Prng.int rng 4 in
  let stats =
    if proto_idx = 3 then Some (Array.init n (fun _ -> Adaptive.stats ()))
    else None
  in
  let proto =
    match proto_idx with
    | 0 -> Workload.pi_z
    | 1 -> Workload.high_cost_ca ~bits
    | 2 -> Workload.broadcast_ca ~bits
    | _ ->
        Workload.pi_z_adaptive
          ?stats_of:(Option.map (fun s me -> s.(me)) stats)
          ()
  in
  (* Fixed-width comparators clamp magnitudes; route negative workloads to
     the arbitrary-precision Pi_Z. The adaptive draw (index 3) also handles
     all of Z and keeps its slot. *)
  let proto =
    if
      (proto_idx = 1 || proto_idx = 2)
      && Array.exists (fun v -> Bigint.sign v < 0) inputs
    then Workload.pi_z
    else proto
  in
  let entry =
    List.nth Attacks.registry (Prng.int rng (List.length Attacks.registry))
  in
  let adversary =
    entry.Attacks.make ~seed ~payload:(Sha256.digest (string_of_int seed))
  in
  let describe =
    Printf.sprintf "proto=%s workload=%s attack=%s adversary=%s"
      proto.Workload.proto_name workload_name
      (Workload.input_attack_name attack)
      adversary.Adversary.name
  in
  {
    d_inputs = inputs;
    d_proto = proto;
    d_adversary = adversary;
    d_describe = describe;
    d_stats = stats;
    d_resolving = workload_name <> "clustered";
  }

let wave ~cfg ~obs ~idx =
  let seed = (cfg.seed * 1_000_003) + idx in
  let rng = Prng.create seed in
  let n = 4 + Prng.int rng 4 in
  let t = Prng.int rng (((n - 1) / 3) + 1) in
  (* Fault-adaptive dimension: the protocol bound stays t, but the wave
     corrupts only f <= t parties. Zero-fault waves must see the adaptive
     fast path engage; faulty waves exercise its detection and fallback. *)
  let f = Prng.int rng (t + 1) in
  let corrupt = Workload.random_corrupt rng ~n ~count:f in
  let sessions = 1 + Prng.int rng cfg.wave_cap in
  let spacing = Prng.int rng 3 in
  let describe_wave =
    Printf.sprintf
      "wave=%d seed=%d backend=%s n=%d t=%d f=%d sessions=%d spacing=%d" idx
      seed cfg.backend n t f sessions spacing
  in
  let draws =
    Array.init sessions (fun k ->
        draw_session ~corrupt ~n ~seed:(seed + (997 * k)))
  in
  let specs =
    List.init sessions (fun k ->
        let d = draws.(k) in
        Engine.session ~sid:k ~start_round:(k * spacing)
          ~adversary:d.d_adversary (fun ctx ->
            d.d_proto.Workload.run ctx d.d_inputs.(ctx.Ctx.me)))
  in
  let failures = ref [] in
  let fail fmt =
    Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt
  in
  let mw0 = Gc.minor_words () in
  match
    match cfg.backend with
    | "poll" -> Engine.run_poll ~obs ~n ~t ~corrupt specs
    | _ -> Engine.run_sim ~obs ~n ~t ~corrupt specs
  with
  | exception e ->
      {
        w_sessions = sessions;
        w_rounds = 0;
        w_frames_saved = 0;
        w_frame_bytes = 0;
        w_minor_words = 0.0;
        w_telemetry_bytes = 0;
        w_failures =
          [ Printf.sprintf "%s: raised %s" describe_wave (Printexc.to_string e) ];
      }
  | outcome ->
      let minor_words = Gc.minor_words () -. mw0 in
      if outcome.Engine.aggregate.Engine.sessions_completed <> sessions then
        fail "%s: %d of %d sessions completed" describe_wave
          outcome.Engine.aggregate.Engine.sessions_completed sessions;
      List.iter
        (fun r ->
          let k = r.Engine.r_sid in
          let d = draws.(k) in
          let agreement, validity =
            Workload.check_ca ~corrupt ~inputs:d.d_inputs
              (Engine.honest_outputs ~corrupt r)
          in
          if not (agreement && validity) then
            fail "%s: sid=%d %s: agreement=%b validity=%b" describe_wave k
              d.d_describe agreement validity;
          (* Zero-fault waves with order keys that resolve must take the fast
             path at every party; any fallback there means the adaptive layer
             stopped being f-sensitive. *)
          match d.d_stats with
          | Some stats when f = 0 && d.d_resolving ->
              Array.iteri
                (fun i (s : Adaptive.stats) ->
                  if s.Adaptive.fallbacks > 0 || s.Adaptive.fast_taken = 0 then
                    fail
                      "%s: sid=%d %s: party %d missed the zero-fault fast \
                       path (fast=%d fallbacks=%d f_observed=%d)"
                      describe_wave k d.d_describe i s.Adaptive.fast_taken
                      s.Adaptive.fallbacks s.Adaptive.f_observed)
                stats
          | Some _ | None -> ())
        outcome.Engine.sessions;
      let telemetry_bytes =
        if idx mod telemetry_every = 0 then String.length (Obs.to_jsonl obs)
        else 0
      in
      {
        w_sessions = sessions;
        w_rounds = outcome.Engine.aggregate.Engine.engine_rounds;
        w_frames_saved = outcome.Engine.aggregate.Engine.frames_saved;
        w_frame_bytes = outcome.Engine.aggregate.Engine.frame_bytes;
        w_minor_words = minor_words;
        w_telemetry_bytes = telemetry_bytes;
        w_failures = List.rev !failures;
      }

(* ---- main loop ------------------------------------------------------------ *)

let () =
  let cfg = parse default_cfg (List.tl (Array.to_list Sys.argv)) in
  (match cfg.backend with
  | "sim" | "poll" -> ()
  | b ->
      Printf.eprintf "error: unknown backend %S; available: sim, poll\n" b;
      exit 2);
  let rss_ceiling = cfg.max_rss_mb * 1024 * 1024 in
  (* One recorder per wave, so the span plane never outlives its wave. The
     interesting distributions are long-run ones: the soak totals fold each
     wave's frame-bytes and round-wall histograms in after the wave. Each
     wave's recorder holds that wave's samples. *)
  let totals = Obs.create () in
  let frame_h = Obs.hist totals ~tier:Obs.Det "engine/frame_bytes" in
  let wall_h = Obs.hist totals ~tier:Obs.Sampled "engine/round_wall_ns" in
  let t0 = Unix.gettimeofday () in
  let waves = ref 0 in
  let total_sessions = ref 0 in
  let total_rounds = ref 0 in
  let total_saved = ref 0 in
  let sampled_bytes = ref 0 in
  let sampled_waves = ref 0 in
  let failures = ref 0 in
  let rss_breached = ref false in
  let total_minor_words = ref 0.0 in
  (* Per wave, minor words per frame byte — allocation normalized by how much
     traffic the wave actually moved, so random wave sizes cancel out. An
     engine that leaks allocates more per byte as waves accumulate. *)
  let alloc_rates = ref [] in
  Printf.printf
    "soak: backend=%s duration=%.0fs seed=%d max-sessions/wave=%d \
     rss-ceiling=%dMB\n\
     %!"
    cfg.backend cfg.duration cfg.seed cfg.wave_cap cfg.max_rss_mb;
  while
    (not !rss_breached)
    && (!waves = 0 || Unix.gettimeofday () -. t0 < cfg.duration)
  do
    let obs = Obs.create () in
    let r = wave ~cfg ~obs ~idx:!waves in
    Obs.Hist.merge ~into:frame_h (Obs.hist obs ~tier:Obs.Det "engine/frame_bytes");
    Obs.Hist.merge ~into:wall_h (Obs.hist obs ~tier:Obs.Sampled "engine/round_wall_ns");
    incr waves;
    total_sessions := !total_sessions + r.w_sessions;
    total_rounds := !total_rounds + r.w_rounds;
    total_saved := !total_saved + r.w_frames_saved;
    total_minor_words := !total_minor_words +. r.w_minor_words;
    if r.w_frame_bytes > 0 then
      alloc_rates :=
        (r.w_minor_words /. float_of_int r.w_frame_bytes) :: !alloc_rates;
    if r.w_telemetry_bytes > 0 then begin
      incr sampled_waves;
      sampled_bytes := !sampled_bytes + r.w_telemetry_bytes
    end;
    List.iter
      (fun msg ->
        incr failures;
        Printf.printf "FAIL %s\n%!" msg)
      r.w_failures;
    (* The ceiling is the soak's leak detector: a transport or engine that
       accumulates per-wave state trips it long before the box swaps. *)
    (match Net_poll.rss_peak_bytes () with
    | Some peak when peak > rss_ceiling ->
        rss_breached := true;
        Printf.printf "FAIL wave=%d: peak RSS %d MB exceeds ceiling %d MB\n%!"
          (!waves - 1)
          (peak / (1024 * 1024))
          cfg.max_rss_mb
    | Some _ | None -> ());
    (* Per-wave health snapshot: a line of cumulative obs distributions. *)
    Printf.printf
      "  wave %d health: rounds=%d frames=%d frame-p99=%dB round-p99=%.2fms \
       rss=%s\n\
       %!"
      (!waves - 1) !total_rounds (Obs.Hist.count frame_h)
      (Obs.Hist.quantile frame_h 0.99)
      (float_of_int (Obs.Hist.quantile wall_h 0.99) /. 1e6)
      (match Net_poll.rss_bytes () with
      | Some b -> Printf.sprintf "%dMB" (b / (1024 * 1024))
      | None -> "n/a");
    if !waves mod 10 = 0 then
      Printf.printf
        "  ... %d waves, %d sessions, %d failures, rss=%s, %.1fs\n%!" !waves
        !total_sessions !failures
        (match Net_poll.rss_bytes () with
        | Some b -> Printf.sprintf "%dMB" (b / (1024 * 1024))
        | None -> "n/a")
        (Unix.gettimeofday () -. t0)
  done;
  Printf.printf
    "soak: %d waves, %d sessions, %d engine rounds, %d frames saved, %d \
     failures in %.1fs\n"
    !waves !total_sessions !total_rounds !total_saved !failures
    (Unix.gettimeofday () -. t0);
  Printf.printf "      JSONL export sized on %d waves (%d bytes, dropped)%s\n"
    !sampled_waves !sampled_bytes
    (match Net_poll.rss_peak_bytes () with
    | Some b -> Printf.sprintf "; peak rss %d MB" (b / (1024 * 1024))
    | None -> "");
  Printf.printf "      obs: %d frames (p50=%dB p99=%dB), round wall p99 %.2fms\n"
    (Obs.Hist.count frame_h)
    (Obs.Hist.quantile frame_h 0.5)
    (Obs.Hist.quantile frame_h 0.99)
    (float_of_int (Obs.Hist.quantile wall_h 0.99) /. 1e6);
  Printf.printf "      allocation: %.0f minor words/wave mean\n"
    (if !waves = 0 then 0.0 else !total_minor_words /. float_of_int !waves);
  (* Flatness: the allocation rate (minor words per frame byte) must not
     drift upward across the run — the GC-side analogue of the RSS ceiling.
     Medians of the two halves; one-sided, because wave counts vary with
     wall clock and a faster second half is not a leak. *)
  let flat_ok =
    let rates = Array.of_list (List.rev !alloc_rates) in
    let w = Array.length rates in
    if w < 4 then true
    else begin
      let median a =
        let s = Array.copy a in
        Array.sort compare s;
        let m = Array.length s in
        if m land 1 = 1 then s.(m / 2) else (s.((m / 2) - 1) +. s.(m / 2)) /. 2.0
      in
      let first = median (Array.sub rates 0 (w / 2)) in
      let second = median (Array.sub rates (w / 2) (w - (w / 2))) in
      Printf.printf
        "      allocation rate: %.1f -> %.1f words/frame-byte (median, \
         first/second half)\n"
        first second;
      if second > 1.2 *. first then begin
        Printf.printf
          "FAIL allocation rate drifted: second-half median %.1f > 1.2x \
           first-half %.1f words/frame-byte\n"
          second first;
        false
      end
      else true
    end
  in
  if !failures > 0 || !rss_breached || not flat_ok then exit 1
