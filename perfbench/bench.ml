(* The repository benchmark: three seeded agreement workloads driven through
   the public entry points, Definition 1 checked on every session.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --selftest

   --trace 0 prints the end-to-end metrics of one untraced run; --trace 1
   runs every session twice, untraced and through the [Layers] wrappers, and
   prints the per-layer split together with the closure checks.  The last
   line of standard output is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics].  End-to-end times are scaled to a
   nominal host speed ([Host]); per-layer times are raw.

   Workloads (one process, one domain each; why each one exists is recorded
   in BENCHMARK.json):
   - oracle_stream: [Engine.run_core] over [Net_poll.transport], n = 7,
     t = 2, Π_ℤ on 64-bit price-feed inputs, open loop in round time (one
     session admitted per engine round).
   - wide_value: closed loop of [Workload.run_int] with Π_ℤ, n = 13, t = 4,
     ℓ = 2^15, inputs sharing their top half.
   - fault_mix: closed loop of [Workload.pi_z_adaptive], n = 13, t = 4,
     ℓ = 2^13, f drawn from 0..t with one session in four on deep-tie
     inputs. *)

open Net

let now_ns = Layers.now_ns
let ms_of_ns ns = float ns /. 1e6

(* ---- statistics --------------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = p *. float (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* ---- inputs -------------------------------------------------------------- *)

(* A random magnitude of [bits] bits, the top one set when [top].  Built by
   pairwise combination of 30-bit chunks, O(ℓ log ℓ): [Workload.clustered_bits]
   goes through [Bigint.of_bitstring], which is quadratic in ℓ and would cost
   the caller as much as a whole session at ℓ = 2^15. *)
let random_bits ?(top = true) rng bits =
  let cb = 30 in
  let k = (bits + cb - 1) / cb in
  let width i = if i = 0 then bits - ((k - 1) * cb) else cb in
  let chunk i =
    let w = width i in
    let v = Prng.int rng (1 lsl w) in
    if i = 0 && top then v lor (1 lsl (w - 1)) else v
  in
  let chunks = Array.init k chunk in
  let rec build lo hi =
    if hi - lo = 1 then (Bigint.of_int chunks.(lo), width lo)
    else
      let mid = (lo + hi) / 2 in
      let a, wa = build lo mid and b, wb = build mid hi in
      (Bigint.add (Bigint.shift_left a wb) b, wa + wb)
  in
  fst (build 0 k)

(* ℓ-bit values sharing their top [shared] bits (the [Workload.clustered_bits]
   shape, with the top bit set so every value is exactly ℓ bits long). *)
let clustered rng ~n ~bits ~shared =
  let prefix = Bigint.shift_left (random_bits rng shared) (bits - shared) in
  Array.init n (fun _ ->
      Bigint.add prefix (random_bits ~top:false rng (bits - shared)))

let uniform rng ~n ~bits = Array.init n (fun _ -> random_bits rng bits)

(* The adaptive preamble orders parties by (sign, bit length, top 128 bits);
   its fast path is expected at f = 0 only when those keys are distinct. *)
let keys_resolve inputs =
  let key v =
    let b = Bigint.bit_length (Bigint.abs v) in
    (Bigint.sign v, b, Bigint.shift_right (Bigint.abs v) (max 0 (b - 128)))
  in
  let keys = Array.to_list (Array.map key inputs) in
  let rec distinct = function
    | [] -> true
    | (s, b, top) :: rest ->
        List.for_all (fun (s', b', top') -> s <> s' || b <> b' || not (Bigint.equal top top')) rest
        && distinct rest
  in
  distinct keys

let honest_inputs ~corrupt inputs =
  List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)

let holds ~corrupt ~inputs outputs =
  match outputs with
  | [] -> false
  | o :: rest ->
      List.for_all (Bigint.equal o) rest
      && List.for_all
           (Convex.in_convex_hull ~inputs:(honest_inputs ~corrupt inputs))
           outputs

(* What a traced run must reproduce exactly. *)
type fingerprint = {
  outputs : Bigint.t list;
  fp_bits : int;
  fp_rounds : int;
  labels : (string * int) list;
}

let fingerprint outputs (m : Metrics.t) =
  { outputs; fp_bits = m.Metrics.honest_bits; fp_rounds = m.Metrics.rounds; labels = Metrics.labels m }

let same a b =
  List.equal Bigint.equal a.outputs b.outputs
  && a.fp_bits = b.fp_bits && a.fp_rounds = b.fp_rounds && a.labels = b.labels

(* Per-label bits add up to the honest bits exactly. *)
let labels_close fp = List.fold_left (fun acc (_, b) -> acc + b) 0 fp.labels = fp.fp_bits

(* ---- sessions ------------------------------------------------------------ *)

type session = {
  ms : float;  (* due -> decided *)
  rounds : int;
  bits : int;
  ok : bool;
  fast : bool;  (* adaptive fast path taken *)
}

let failed_session ms = { ms; rounds = 0; bits = 0; ok = false; fast = false }

type config = {
  n : int;
  t : int;
  bits : int;
  setups : int;
  min_sessions : int;
  traced_min : int;  (* sessions of a traced run *)
}

(* One session's inputs and adversary for the simulator workloads. *)
type case = {
  f : int;
  corrupt : bool array;
  inputs : Bigint.t array;
  adv_seed : int;
  expect_fast : bool;
}

let session_rng ~seed i = Prng.split (Prng.create seed) ~salt:i

let wide_case (c : config) ~seed i =
  let rng = session_rng ~seed i in
  let corrupt = Workload.spread_corrupt ~n:c.n ~t:c.t in
  let inputs =
    Workload.apply_input_attack Workload.Outlier_high ~corrupt
      (clustered rng ~n:c.n ~bits:c.bits ~shared:(c.bits / 2))
  in
  { f = c.t; corrupt; inputs; adv_seed = seed + i; expect_fast = false }

let fault_inputs (c : config) ~seed i ~f ~deep =
  let rng = session_rng ~seed i in
  let corrupt = Workload.spread_corrupt ~n:c.n ~t:f in
  let base =
    if deep then clustered rng ~n:c.n ~bits:c.bits ~shared:(min 256 (c.bits - 64))
    else uniform rng ~n:c.n ~bits:c.bits
  in
  let inputs = Workload.apply_input_attack Workload.Outlier_high ~corrupt base in
  { f; corrupt; inputs; adv_seed = seed + i; expect_fast = f = 0 && keys_resolve inputs }

(* Sessions come in shuffled blocks of 4(t+1): every f in 0..t four times,
   once on deep-tie inputs, so each block holds the same mix. *)
let fault_block (c : config) = 4 * (c.t + 1)

let fault_case (c : config) ~seed i =
  let len = fault_block c in
  let block = Array.init len (fun j -> (j / 4, j mod 4 = 0)) in
  let brng = session_rng ~seed:(seed + 7919) (i / len) in
  for j = len - 1 downto 1 do
    let r = Prng.int brng (j + 1) in
    let x = block.(j) in
    block.(j) <- block.(r);
    block.(r) <- x
  done;
  let f, deep = block.(i mod len) in
  fault_inputs c ~seed i ~f ~deep

(* Warm-up sessions: the same ones in every set-up of a run, and for
   fault_mix one of each path, so set-up time does not depend on the mix. *)
let wide_warmup c ~seed = [ wide_case c ~seed:(seed + 104729) 0 ]

let fault_warmup c ~seed =
  let seed = seed + 104729 in
  [ fault_inputs c ~seed 0 ~f:0 ~deep:false; fault_inputs c ~seed 1 ~f:c.t ~deep:false ]

(* The protocol a party runs, untraced (the public entry point) or through
   the layer wrappers. *)
type sim_workload = {
  cfg : config;
  adaptive : bool;
  block : int;  (* a run stops only after whole blocks of this many sessions *)
  case : seed:int -> int -> case;
  warmup : seed:int -> case list;
  plain : (int -> Adaptive.stats) -> Ctx.t -> Bigint.t -> Bigint.t Proto.t;
  traced : (int -> Adaptive.stats) -> Ctx.t -> Bigint.t -> Bigint.t Proto.t;
}

let first_honest corrupt =
  let rec go i = if corrupt.(i) then go (i + 1) else i in
  go 0

let run_sim_plain (w : sim_workload) (c : case) =
  let stats = Array.init w.cfg.n (fun _ -> Adaptive.stats ()) in
  let t0 = now_ns () in
  match
    Workload.run_int ~n:w.cfg.n ~t:w.cfg.t ~corrupt:c.corrupt
      ~adversary:(Adversary.equivocate ~seed:c.adv_seed) ~inputs:c.inputs
      (w.plain (fun i -> stats.(i)))
  with
  | r ->
      let ms = ms_of_ns (now_ns () - t0) in
      let fast = stats.(first_honest c.corrupt).Adaptive.fast_taken = 1 in
      let ok =
        r.Workload.agreement && r.Workload.convex_validity
        && ((not c.expect_fast) || fast)
      in
      let fp =
        {
          outputs = r.Workload.outputs;
          fp_bits = r.Workload.honest_bits;
          fp_rounds = r.Workload.rounds;
          labels = r.Workload.labels;
        }
      in
      ({ ms; rounds = fp.fp_rounds; bits = fp.fp_bits; ok; fast }, Some fp)
  | exception _ -> (failed_session (ms_of_ns (now_ns () - t0)), None)

(* ---- end-to-end run ------------------------------------------------------ *)

(* Session times, the timed phase and set-up are scaled to the nominal host
   speed (see [Host]); the kernel runs between sessions or engine rounds and
   its time and allocation are kept out of the workload's. *)
type e2e = {
  sessions : session list;
  timed_s : float;
  minor_words : float;
  setup_s : float;
}

let timed_setup (cfg : config) once =
  let times =
    List.init cfg.setups (fun _ ->
        let t0 = now_ns () in
        once ();
        let d = now_ns () - t0 in
        Host.sample ();
        Host.scale d /. 1e9)
  in
  median times

let closed_loop ?(block = 1) ~seconds ~min_sessions body =
  let t0 = now_ns () in
  let rec go i acc =
    if float (now_ns () - t0) /. 1e9 >= seconds && i >= min_sessions && i mod block = 0 then
      List.rev acc
    else go (i + 1) (body i :: acc)
  in
  go 0 []

let sim_e2e (w : sim_workload) ~seed ~seconds =
  let setup_s =
    timed_setup w.cfg (fun () -> List.iter (fun c -> ignore (run_sim_plain w c)) (w.warmup ~seed))
  in
  let w0 = Gc.minor_words () and hw0 = !Host.words and busy = ref 0. in
  let sessions =
    closed_loop ~block:w.block ~seconds ~min_sessions:w.cfg.min_sessions (fun i ->
        Host.sample ();
        let t0 = now_ns () in
        let s = fst (run_sim_plain w (w.case ~seed i)) in
        busy := !busy +. Host.scale (now_ns () - t0);
        { s with ms = s.ms *. !Host.factor })
  in
  let minor_words = Gc.minor_words () -. w0 -. (!Host.words -. hw0) in
  { sessions; timed_s = !busy /. 1e9; minor_words; setup_s }

(* ---- oracle_stream: the engine over the poll mesh -------------------------- *)

let oracle_inputs (c : config) ~seed ~k =
  let corrupt = Workload.spread_corrupt ~n:c.n ~t:c.t in
  Array.init k (fun i ->
      let rng = session_rng ~seed i in
      Workload.apply_input_attack Workload.Outlier_high ~corrupt
        (Workload.price_feed rng ~n:c.n ~base:"61234" ~decimals:14 ~spread_ppm:200))

type engine_run = {
  e_sessions : session list;
  e_outcome : Bigint.t Engine.outcome option;
  e_wall_ns : float;
  e_round_ns : float list;  (* per engine round, stamp to stamp *)
  e_live_sum : int;
}

(* One [run_core] call, admitting one session per engine round.  Session
   latency runs from the end of the engine round before its admission (when
   it was due) to the end of the round it retired in, both stamped by
   [on_round].  With [host], the stamps are scaled to the nominal host speed
   and the host kernel runs after every 16th round, outside the stamps. *)
let run_engine (c : config) ~seed ~traced ~host ~transport inputs =
  let corrupt = Workload.spread_corrupt ~n:c.n ~t:c.t in
  let specs =
    Array.to_list
      (Array.mapi
         (fun sid (inp : Bigint.t array) ->
           let protocol ctx =
             let v = inp.(ctx.Ctx.me) in
             if traced then Layers.top (fun () -> Layers.Pi_z.run ctx v)
             else Convex.agree_int ctx v
           in
           Engine.session ~sid ~start_round:sid
             ~adversary:(Adversary.equivocate ~seed:(seed + sid))
             protocol)
         inputs)
  in
  let stamps = ref (Array.make (Array.length inputs + 4096) 0.) in
  let last = ref (-1) and live_sum = ref 0 in
  let clock = ref 0. and raw = ref (now_ns ()) in
  let tick () =
    let now = now_ns () in
    clock := !clock +. if host then Host.scale (now - !raw) else float (now - !raw);
    raw := now
  in
  let on_round ~round ~live =
    if round >= Array.length !stamps then begin
      let a = Array.make (2 * round) 0. in
      Array.blit !stamps 0 a 0 (Array.length !stamps);
      stamps := a
    end;
    tick ();
    !stamps.(round) <- !clock;
    last := round;
    live_sum := !live_sum + live;
    if host && round mod 16 = 15 then begin
      Host.sample ();
      raw := now_ns ()
    end
  in
  let outcome =
    try Some (Engine.run_core ~on_round ~transport ~n:c.n ~t:c.t ~corrupt specs)
    with _ -> None
  in
  tick ();
  let stamps = !stamps in
  let stamp r = if r < 0 then 0. else stamps.(r) in
  let sessions =
    match outcome with
    | None ->
        Array.to_list (Array.map (fun _ -> failed_session (!clock /. 1e6)) inputs)
    | Some o ->
        List.map
          (fun (r : Bigint.t Engine.session_result) ->
            let inputs = inputs.(r.Engine.r_sid) in
            let ok =
              match Engine.honest_outputs ~corrupt r with
              | outs -> holds ~corrupt ~inputs outs
              | exception _ -> false
            in
            {
              ms = (stamp r.Engine.r_retired_at -. stamp (r.Engine.r_admitted_at - 1)) /. 1e6;
              rounds = r.Engine.r_metrics.Metrics.rounds;
              bits = r.Engine.r_metrics.Metrics.honest_bits;
              ok;
              fast = false;
            })
          o.Engine.sessions
  in
  {
    e_sessions = sessions;
    e_outcome = outcome;
    e_wall_ns = !clock;
    e_round_ns = List.init (!last + 1) (fun r -> stamp r -. stamp (r - 1));
    e_live_sum = !live_sum;
  }

(* Sessions offered per second of --seconds: sized so the engine call lasts
   about --seconds on a 2-core x86-64 host. *)
let oracle_rate = 60

let oracle_k ~tiny ~seconds =
  if tiny then 12 else max 100 (int_of_float (float oracle_rate *. seconds))

(* Build the inputs, create the mesh and pass a few warm-up sessions through
   it, [setups] times; the last mesh serves the timed phase. *)
let oracle_setup (c : config) ~seed ~k =
  let mesh = ref None and inputs = ref [||] in
  let setup_s =
    timed_setup c (fun () ->
        Option.iter Net_poll.close !mesh;
        inputs := oracle_inputs c ~seed ~k;
        let m = Net_poll.create ~n:c.n () in
        mesh := Some m;
        let warm = oracle_inputs c ~seed:(seed + 104729) ~k:(min 8 k) in
        ignore (run_engine c ~seed ~traced:false ~host:false ~transport:(Net_poll.transport m) warm))
  in
  (Option.get !mesh, !inputs, setup_s)

let oracle_e2e (c : config) ~seed ~k =
  let mesh, inputs, setup_s = oracle_setup c ~seed ~k in
  Fun.protect
    ~finally:(fun () -> Net_poll.close mesh)
    (fun () ->
      let w0 = Gc.minor_words () and hw0 = !Host.words in
      let r =
        run_engine c ~seed ~traced:false ~host:true ~transport:(Net_poll.transport mesh) inputs
      in
      {
        sessions = r.e_sessions;
        timed_s = r.e_wall_ns /. 1e9;
        minor_words = Gc.minor_words () -. w0 -. (!Host.words -. hw0);
        setup_s;
      })

(* ---- metrics ------------------------------------------------------------- *)

type metric = string * string * float

let e2e_metrics (r : e2e) : metric list =
  let s = r.sessions in
  let k = float (List.length s) in
  let ms = List.map (fun (x : session) -> x.ms) s
  and rounds = List.map (fun (x : session) -> float x.rounds) s in
  let rss = Option.value ~default:0 (Net_poll.rss_peak_bytes ()) in
  [
    ("sessions_per_s", "1/s", ratio k r.timed_s);
    ("session_ms.p50", "ms", median ms);
    ("session_ms.p90", "ms", percentile ms 0.9);
    ("session_rounds.p50", "rounds", median rounds);
    ("session_rounds.max", "rounds", List.fold_left max 0. rounds);
    ( "honest_kbits_per_session",
      "kbit",
      ratio (float (List.fold_left (fun a (x : session) -> a + x.bits) 0 s) /. 1e3) k );
    ("minor_kwords_per_session", "kword", ratio (r.minor_words /. 1e3) k);
    ("peak_rss_mb", "MiB", float rss /. 1048576.);
    ("setup_s", "s", r.setup_s);
    ("ok_share", "ratio", ratio (float (List.length (List.filter (fun x -> x.ok) s))) k);
  ]

(* Every per-layer metric, in BENCHMARK.json order; a layer the workload
   bypasses reads 0. *)
let layer_names =
  [
    ("net.sim.self_ms_per_session", "ms");
    ("ba.calls_per_session", "count");
    ("ba.self_ms_per_session", "ms");
    ("ba.minor_kwords_per_session", "kword");
    ("ba.kbits_per_session", "kbit");
    ("baplus.pi_ba_plus.kbits_per_session", "kbit");
    ("baplus.ext_distribute.kbits_per_session", "kbit");
    ("core.step_ms_per_session", "ms");
    ("core.decide_ms_per_session", "ms");
    ("core.minor_kwords_per_session", "kword");
    ("core.find_prefix.kbits_per_session", "kbit");
    ("core.high_cost_ca.kbits_per_session", "kbit");
    ("core.length_estimation.kbits_per_session", "kbit");
    ("core.add_last_bit.kbits_per_session", "kbit");
    ("core.get_output.kbits_per_session", "kbit");
    ("adaptive.fast_path_ratio", "ratio");
    ("adaptive.adaptive_fast.kbits_per_session", "kbit");
    ("adaptive.fast_ms.p50", "ms");
    ("adaptive.fallback_ms.p50", "ms");
    ("engine.round_ms.p50", "ms");
    ("engine.round_ms.p90", "ms");
    ("engine.self_ms_per_round", "ms");
    ("engine.live.mean", "count");
    ("wire.frame_kbytes_per_session", "kB");
    ("wire.frames_saved_ratio", "ratio");
    ("net_poll.exchange_ms_per_round", "ms");
    ("net_poll.select_wait_mean_us", "us");
    ("net_poll.syscalls_per_round", "count");
    ("net_poll.parked", "count");
    ("net_poll.minor_words_per_round", "word");
    ("model.bits_ratio", "ratio");
    ("model.rounds_ratio", "ratio");
    ("trace.overhead_pct", "%");
    ("trace.unattributed_pct", "%");
  ]

let label_metrics =
  [
    ("ba.kbits_per_session", "pi_ba");
    ("baplus.pi_ba_plus.kbits_per_session", "pi_ba_plus");
    ("baplus.ext_distribute.kbits_per_session", "ext_distribute");
    ("core.find_prefix.kbits_per_session", "find_prefix");
    ("core.high_cost_ca.kbits_per_session", "high_cost_ca");
    ("core.length_estimation.kbits_per_session", "length_estimation");
    ("core.add_last_bit.kbits_per_session", "add_last_bit");
    ("core.get_output.kbits_per_session", "get_output");
    ("adaptive.adaptive_fast.kbits_per_session", "adaptive_fast");
  ]

(* What a traced run accumulates besides [Layers]' timers. *)
type traced = {
  mutable pairs : int;
  mutable closure_failures : int;
  mutable bad_sessions : int;
  mutable plain_ns : int;  (* untraced copies *)
  mutable traced_ns : int;  (* traced copies, including their checks *)
  mutable runtime_ns : int;  (* Sim.run / run_core calls of the traced copies *)
  labels : (string, int) Hashtbl.t;
  mutable bits : int;
  mutable rounds : int;
  mutable model_bits : int;
  mutable model_rounds : int;
  mutable fast : int;
  mutable fast_ms : float list;
  mutable fallback_ms : float list;
}

let new_traced () =
  {
    pairs = 0;
    closure_failures = 0;
    bad_sessions = 0;
    plain_ns = 0;
    traced_ns = 0;
    runtime_ns = 0;
    labels = Hashtbl.create 16;
    bits = 0;
    rounds = 0;
    model_bits = 0;
    model_rounds = 0;
    fast = 0;
    fast_ms = [];
    fallback_ms = [];
  }

let add_labels tr (m : Metrics.t) =
  List.iter
    (fun (l, b) ->
      Hashtbl.replace tr.labels l (b + Option.value ~default:0 (Hashtbl.find_opt tr.labels l)))
    (Metrics.labels m)

(* Layer metrics common to both runtimes, from [Layers]' accumulators. *)
let common_layers tr ~n =
  let k = float (max 1 tr.pairs) in
  let label l = float (Option.value ~default:0 (Hashtbl.find_opt tr.labels l)) in
  [
    ("ba.calls_per_session", float Layers.ba.calls /. float n /. k);
    ("ba.self_ms_per_session", ms_of_ns Layers.ba.ns /. k);
    ("ba.minor_kwords_per_session", float Layers.ba.words /. 1e3 /. k);
    ("core.step_ms_per_session", ms_of_ns Layers.step.ns /. k);
    ("core.decide_ms_per_session", ms_of_ns Layers.decide.ns /. k);
    ( "core.minor_kwords_per_session",
      float (Layers.step.words + Layers.decide.words) /. 1e3 /. k );
    ("model.bits_ratio", ratio (float tr.model_bits) (float tr.bits));
    ("model.rounds_ratio", ratio (float tr.model_rounds) (float tr.rounds));
    ("trace.overhead_pct", 100. *. (ratio (float tr.traced_ns) (float tr.plain_ns) -. 1.));
    (* The layer self times add up to the runtime calls' wall time. *)
    ( "trace.unattributed_pct",
      100. *. ratio (float (tr.traced_ns - tr.runtime_ns)) (float tr.traced_ns) );
  ]
  @ List.map (fun (name, l) -> (name, label l /. 1e3 /. k)) label_metrics

let fill_layers known : metric list =
  List.map
    (fun (name, unit) -> (name, unit, Option.value ~default:0. (List.assoc_opt name known)))
    layer_names

(* Sim workloads: each session runs untraced through [Workload.run_int],
   then traced through [Net.Sim.run] with the wrapped protocol. *)
let sim_traced (w : sim_workload) ~seed ~seconds ~model =
  let tr = new_traced () in
  let n = w.cfg.n and t = w.cfg.t in
  Layers.reset ();
  let _ =
    closed_loop ~block:w.block ~seconds ~min_sessions:w.cfg.traced_min (fun i ->
        let c = w.case ~seed i in
        let s, plain = run_sim_plain w c in
        tr.pairs <- tr.pairs + 1;
        tr.plain_ns <- tr.plain_ns + int_of_float (s.ms *. 1e6);
        if not s.ok then tr.bad_sessions <- tr.bad_sessions + 1;
        let stats = Array.init n (fun _ -> Adaptive.stats ()) in
        let t0 = now_ns () in
        (match
           Sim.run ~n ~t ~corrupt:c.corrupt
             ~adversary:(Adversary.equivocate ~seed:c.adv_seed)
             (fun ctx -> w.traced (fun i -> stats.(i)) ctx c.inputs.(ctx.Ctx.me))
         with
        | outcome ->
            tr.runtime_ns <- tr.runtime_ns + (now_ns () - t0);
            let m = outcome.Sim.metrics in
            let fast = stats.(first_honest c.corrupt).Adaptive.fast_taken = 1 in
            let fp = fingerprint (Sim.honest_outputs ~corrupt:c.corrupt outcome) m in
            let same = match plain with Some p -> same p fp && labels_close p | None -> false in
            if not (same && fast = s.fast) then tr.closure_failures <- tr.closure_failures + 1;
            add_labels tr m;
            tr.bits <- tr.bits + m.Metrics.honest_bits;
            tr.rounds <- tr.rounds + m.Metrics.rounds;
            let cost : Ba.Substrate.cost = model (Ctx.make ~me:0 ~n ~t) ~f:c.f in
            tr.model_bits <- tr.model_bits + cost.Ba.Substrate.c_bits;
            tr.model_rounds <- tr.model_rounds + cost.Ba.Substrate.c_rounds;
            if w.adaptive then
              if fast then begin
                tr.fast <- tr.fast + 1;
                tr.fast_ms <- s.ms :: tr.fast_ms
              end
              else tr.fallback_ms <- s.ms :: tr.fallback_ms
        | exception _ ->
            tr.runtime_ns <- tr.runtime_ns + (now_ns () - t0);
            tr.closure_failures <- tr.closure_failures + 1);
        tr.traced_ns <- tr.traced_ns + (now_ns () - t0))
  in
  let k = float (max 1 tr.pairs) in
  let net_self = tr.runtime_ns - Layers.protocol_ns () in
  if net_self < 0 || tr.traced_ns < tr.runtime_ns then
    tr.closure_failures <- tr.closure_failures + 1;
  let known =
    [
      ("net.sim.self_ms_per_session", ms_of_ns net_self /. k);
      ("adaptive.fast_path_ratio", float tr.fast /. k);
      ("adaptive.fast_ms.p50", median tr.fast_ms);
      ("adaptive.fallback_ms.p50", median tr.fallback_ms);
    ]
    @ common_layers tr ~n
  in
  (tr, fill_layers known)

let oracle_traced (c : config) ~seed ~k =
  let tr = new_traced () in
  let inputs = oracle_inputs c ~seed ~k in
  let with_mesh f =
    let m = Net_poll.create ~n:c.n () in
    Fun.protect ~finally:(fun () -> Net_poll.close m) (fun () -> f m)
  in
  let plain =
    with_mesh (fun m ->
        run_engine c ~seed ~traced:false ~host:false ~transport:(Net_poll.transport m) inputs)
  in
  Layers.reset ();
  let traced, poll =
    with_mesh (fun m ->
        let r =
          run_engine c ~seed ~traced:true ~host:false
            ~transport:(Layers.transport (Net_poll.transport m))
            inputs
        in
        (r, Net_poll.stats m))
  in
  tr.pairs <- List.length traced.e_sessions;
  tr.plain_ns <- int_of_float plain.e_wall_ns;
  tr.traced_ns <- int_of_float traced.e_wall_ns;
  tr.bad_sessions <- List.length (List.filter (fun s -> not s.ok) plain.e_sessions);
  let corrupt = Workload.spread_corrupt ~n:c.n ~t:c.t in
  let outs r = try Engine.honest_outputs ~corrupt r with _ -> [] in
  let agg =
    match (plain.e_outcome, traced.e_outcome) with
    | Some p, Some q ->
        List.iter2
          (fun (a : Bigint.t Engine.session_result) (b : Bigint.t Engine.session_result) ->
            let fa = fingerprint (outs a) a.Engine.r_metrics in
            if not (same fa (fingerprint (outs b) b.Engine.r_metrics) && labels_close fa) then
              tr.closure_failures <- tr.closure_failures + 1;
            add_labels tr b.Engine.r_metrics;
            tr.bits <- tr.bits + b.Engine.r_metrics.Metrics.honest_bits;
            tr.rounds <- tr.rounds + b.Engine.r_metrics.Metrics.rounds)
          p.Engine.sessions q.Engine.sessions;
        Some q.Engine.aggregate
    | _ ->
        tr.closure_failures <- tr.closure_failures + 1;
        None
  in
  let cost = Convex.Ca_int.cost_estimate (Ctx.make ~me:0 ~n:c.n ~t:c.t) ~value_bits:c.bits ~f:c.t in
  tr.model_bits <- cost.Ba.Substrate.c_bits * tr.pairs;
  tr.model_rounds <- cost.Ba.Substrate.c_rounds * tr.pairs;
  let rounds = float (max 1 (List.length traced.e_round_ns)) in
  let round_ns = int_of_float (List.fold_left ( +. ) 0. traced.e_round_ns) in
  tr.runtime_ns <- round_ns;
  let engine_self = round_ns - Layers.protocol_ns () - Layers.exchange.ns in
  if engine_self < 0 || traced.e_wall_ns < float round_ns then
    tr.closure_failures <- tr.closure_failures + 1;
  let kf = float (max 1 tr.pairs) in
  let wire =
    match agg with
    | Some a ->
        [
          ("wire.frame_kbytes_per_session", float a.Engine.frame_bytes /. 1e3 /. kf);
          ("wire.frames_saved_ratio", ratio (float a.Engine.frames_saved) (float a.Engine.naive_frames));
        ]
    | None -> []
  in
  let round_ms = List.map (fun ns -> ns /. 1e6) traced.e_round_ns in
  let known =
    [
      ("engine.round_ms.p50", median round_ms);
      ("engine.round_ms.p90", percentile round_ms 0.9);
      ("engine.self_ms_per_round", ms_of_ns engine_self /. rounds);
      ("engine.live.mean", float traced.e_live_sum /. rounds);
      ("net_poll.exchange_ms_per_round", ms_of_ns Layers.exchange.ns /. rounds);
      ("net_poll.select_wait_mean_us", poll.Net_poll.p_select_wait_mean_s *. 1e6);
      ( "net_poll.syscalls_per_round",
        float (poll.Net_poll.p_reads + poll.Net_poll.p_writes + poll.Net_poll.p_polls) /. rounds );
      ("net_poll.parked", float poll.Net_poll.p_parked);
      ("net_poll.minor_words_per_round", poll.Net_poll.p_minor_words_per_round);
    ]
    @ wire @ common_layers tr ~n:c.n
  in
  (tr, fill_layers known)

(* ---- workloads ----------------------------------------------------------- *)

let config ~tiny name =
  match (name, tiny) with
  | "oracle_stream", false ->
      { n = 7; t = 2; bits = 64; setups = 5; min_sessions = 100; traced_min = 0 }
  | "wide_value", false ->
      { n = 13; t = 4; bits = 1 lsl 15; setups = 5; min_sessions = 100; traced_min = 20 }
  | "fault_mix", false ->
      { n = 13; t = 4; bits = 1 lsl 13; setups = 5; min_sessions = 100; traced_min = 40 }
  | "oracle_stream", true ->
      { n = 4; t = 1; bits = 64; setups = 1; min_sessions = 1; traced_min = 0 }
  | _, true ->
      { n = 4; t = 1; bits = 1 lsl 8; setups = 1; min_sessions = 8; traced_min = 8 }
  | _ -> invalid_arg name

let workloads = [ "oracle_stream"; "wide_value"; "fault_mix" ]
let unauth = (module Ba.Substrate.Unauthenticated : Ba.Substrate.S)

let sim_workload ~tiny name =
  let cfg = config ~tiny name in
  match name with
  | "wide_value" ->
      ( {
          cfg;
          adaptive = false;
          block = 1;
          case = wide_case cfg;
          warmup = wide_warmup cfg;
          plain = (fun _ -> Workload.pi_z.Workload.run);
          traced = (fun _ ctx v -> Layers.top (fun () -> Layers.Pi_z.run ctx v));
        },
        fun ctx ~f -> Convex.Ca_int.cost_estimate ctx ~value_bits:cfg.bits ~f )
  | _ ->
      ( {
          cfg;
          adaptive = true;
          block = fault_block cfg;
          case = fault_case cfg;
          warmup = fault_warmup cfg;
          plain = (fun stats -> (Workload.pi_z_adaptive ~stats_of:stats ()).Workload.run);
          traced =
            (fun stats ctx v ->
              Layers.top (fun () ->
                  Adaptive.agree_int ~stats:(stats ctx.Ctx.me)
                    ~fallback:(module Layers.Timed : Ba.Substrate.S)
                    ctx v));
        },
        fun ctx ~f -> Adaptive.wrapper_cost ctx ~value_bits:cfg.bits ~fallback:unauth ~f )

type result = { attempted : int; failed : int; closure_ok : bool; metrics : metric list }

let run_workload ~tiny ~seed ~seconds ~trace name =
  let cfg = config ~tiny name in
  if not trace then begin
    let r =
      if name = "oracle_stream" then oracle_e2e cfg ~seed ~k:(oracle_k ~tiny ~seconds)
      else sim_e2e (fst (sim_workload ~tiny name)) ~seed ~seconds
    in
    let attempted = List.length r.sessions in
    let failed = List.length (List.filter (fun s -> not s.ok) r.sessions) in
    { attempted; failed; closure_ok = true; metrics = e2e_metrics r }
  end
  else
    let tr, metrics =
      if name = "oracle_stream" then
        (* Two engine calls, untraced then traced, share the run's time. *)
        oracle_traced cfg ~seed ~k:(max 1 (oracle_k ~tiny ~seconds / 2))
      else
        let w, model = sim_workload ~tiny name in
        sim_traced w ~seed ~seconds:(seconds /. 2.) ~model
    in
    {
      attempted = tr.pairs;
      failed = tr.bad_sessions;
      closure_ok = tr.closure_failures = 0;
      metrics;
    }

(* ---- output -------------------------------------------------------------- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0 && r.closure_ok)
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit)
          r.metrics))

let print_summary name r =
  Printf.printf "# %s: %d sessions, %d failed, closure %s\n" name r.attempted r.failed
    (if r.closure_ok then "ok" else "FAILED")

let print_table name r =
  print_summary name r;
  List.iter (fun (m, unit, v) -> Printf.printf "#   %-44s %14.4f %s\n" m v unit) r.metrics

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Tiny parameters on every workload, both modes: exercises the wrappers, the
   closure checks and the printer; fails on any failed session or closure. *)
let selftest () =
  let ok = ref true in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let r = run_workload ~tiny:true ~seed:1 ~seconds:0. ~trace name in
          print_summary (name ^ if trace then " (traced)" else "") r;
          let expected =
            if trace then List.map fst layer_names
            else
              List.map
                (fun (m, _, _) -> m)
                (e2e_metrics { sessions = []; timed_s = 1.; minor_words = 0.; setup_s = 0. })
          in
          let json = result_json r in
          let printed m = contains json (Printf.sprintf "\"%s\": {\"value\": " m) in
          if
            r.failed > 0 || (not r.closure_ok) || r.attempted = 0
            || List.map (fun (m, _, _) -> m) r.metrics <> expected
            || not (List.for_all printed expected)
          then begin
            ok := false;
            Printf.printf "selftest: %s (trace %b) FAILED\n" name trace
          end)
        [ false; true ])
    workloads;
  print_endline (if !ok then "selftest: ok" else "selftest: FAILED");
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " oracle_stream | wide_value | fault_mix");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--selftest", Arg.Set self, " tiny pass over every workload");
    ]
    (fun a -> raise (Arg.Bad a))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !self then selftest ();
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: unknown workload " ^ !workload);
    exit 2
  end;
  let r =
    run_workload ~tiny:false ~seed:!seed ~seconds:(float !seconds) ~trace:(!trace = 1) !workload
  in
  print_table !workload r;
  Host.report ();
  print_endline (result_json r)
