(* The synchronous round loop: the one executor of the paper's Section 2
   model (lock-step rounds, rushing adversary) in this repository.

   One engine round = one round of every live session, lock-step. A session
   is n protocol states under its own rushing adversary: each round the loop
   computes the prescribed message matrix, lets the adversary (which sees the
   session-local round number and that matrix) override the corrupted
   senders' messages, truncates byzantine messages, accounts the honest and
   byzantine traffic, and delivers. The order of every step — the (sender, recipient) order of
   adversary calls included, which fixes a stateful strategy's PRNG
   consumption — is the same for every session count, so a multiplexed
   session is bit-identical to the same session run alone; {!Sim.run} is the
   one-session run. Coalescing is a transport-layer overlay: it changes what
   frames would carry the traffic, never what the traffic is. *)

type 'a spec = {
  sid : int;
  start_round : int;
  protocol : Ctx.t -> 'a Proto.t;
  adversary : Adversary.t;
  setup : [ `Plain | `Authenticated ];
}

let session ?(start_round = 0) ?(adversary = Adversary.passive)
    ?(setup = `Plain) ~sid protocol =
  { sid; start_round; protocol; adversary; setup }

let ctx_maker = function
  | `Plain -> Ctx.make
  | `Authenticated -> Ctx.make_authenticated

type 'a session_result = {
  r_sid : int;
  r_outputs : 'a option array;
  r_metrics : Metrics.t;
  r_admitted_at : int;
  r_retired_at : int;
}

type aggregate = {
  engine_rounds : int;
  sessions_completed : int;
  peak_live : int;
  frames_sent : int;
  naive_frames : int;
  frames_saved : int;
  frame_bytes : int;
  payload_bytes : int;
  honest_bits_total : int;
}

type 'a outcome = {
  sessions : 'a session_result list;
  aggregate : aggregate;
}

exception Round_limit_exceeded of int

let default_max_rounds = 20_000

(* Byzantine messages are truncated to this size: honest-side allocations stay
   bounded no matter what a strategy produces. *)
let max_byzantine_bytes = 1 lsl 22

let validate_specs specs =
  if specs = [] then invalid_arg "Engine: no sessions";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.sid < 0 then invalid_arg "Engine: negative sid";
      if s.start_round < 0 then invalid_arg "Engine: negative start_round";
      if Hashtbl.mem seen s.sid then invalid_arg "Engine: duplicate sid";
      Hashtbl.add seen s.sid ())
    specs

(* Admission order: by start_round, input order within a round. *)
let admission_order specs =
  List.stable_sort
    (fun (_, a) (_, b) -> compare a.start_round b.start_round)
    (List.mapi (fun i s -> (i, s)) specs)

let honest_outputs ~corrupt result =
  let out = ref [] in
  Array.iteri
    (fun i o ->
      if not corrupt.(i) then
        match o with
        | Some v -> out := v :: !out
        | None ->
            failwith
              (Printf.sprintf "Engine: party %d did not terminate in session %d"
                 i result.r_sid))
    result.r_outputs;
  List.rev !out

(* A live session: one protocol state per party, the session's recording
   handle (each party's stack of open spans, which every message is charged
   to — see {!Obs.session}) and the session-local round count, which doubles
   as the adversary's round number. *)
type 'a live = {
  l_index : int;
  l_sid : int;
  l_adversary : Adversary.t;
  l_states : 'a Proto.t array;
  l_obs : Obs.session;
  mutable l_rounds : int;
  l_admitted : int;
}

(* Normalize label/probe nodes so that every state is [Done] or [Step].
   [round] is the session-local number of rounds completed — the stamp
   spans and probes carry. *)
let rec settle ~obs ~corrupt ~round i = function
  | Proto.Push (label, rest) ->
      Obs.push obs ~party:i ~round ~label;
      settle ~obs ~corrupt ~round i rest
  | Proto.Pop rest ->
      Obs.pop obs ~party:i ~round;
      settle ~obs ~corrupt ~round i rest
  | Proto.Probe (key, value, rest) ->
      Obs.probe obs ~party:i ~round ~byzantine:corrupt.(i) ~key ~value;
      settle ~obs ~corrupt ~round i rest
  | (Proto.Done _ | Proto.Step _) as s -> s

(* Some honest party is still stepping: checked every round per session,
   so a plain scan that stops at the first one. *)
let honest_running ~corrupt states =
  let rec from i =
    i < Array.length states
    && ((match states.(i) with Proto.Step _ -> not corrupt.(i) | _ -> false)
       || from (i + 1))
  in
  from 0

(* The round-driven scheduler, parameterized over the byte transport. Every
   backend shares this loop and its one schedule — send phase, exchange,
   delivery phase; what varies is only how each round's traffic reaches
   the recipients ({!Transport.exchange}), which delivers in place into the
   round's message matrices. The loopback transport moves nothing, so each
   recipient reads what was sent; the poll transport writes each pair's
   frame from the slots into its own buffers, pushes the bytes through a
   nonblocking socket mesh, leaves an edge whose frame arrives byte for byte
   as written as it is and parses any other frame back into its cells.
   Because the frames are a pure function of the sessions' traffic, and
   delivery consumes only entry contents plus the local self slot, every
   transport that moves the frames faithfully yields bit-identical outputs,
   metrics, ledger and observability export.

   Steady-state rounds allocate O(live sessions), not O(engine state): the
   live set, the per-slot round matrices and the round view handed to the
   transport are all preallocated at session capacity and reused every
   round. *)
let run_core ?(max_rounds = default_max_rounds) ?obs ?on_round
    ~transport ~n ~t ~corrupt specs =
  if Array.length corrupt <> n then invalid_arg "Engine: corrupt array size";
  let n_corrupt = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 corrupt in
  validate_specs specs;
  (* Obs instruments, recorded by the loop itself and never by a transport,
     so the deterministic tier is identical for every backend. The sampled
     round-wall histogram is the only wall-clock reader and costs two
     gettimeofday calls per engine round when enabled. *)
  let obs_frame_h = Option.map (fun o -> Obs.hist o ~tier:Obs.Det "engine/frame_bytes") obs in
  let obs_life_h = Option.map (fun o -> Obs.hist o ~tier:Obs.Det "engine/session_rounds") obs in
  let obs_wall_h = Option.map (fun o -> Obs.hist o ~tier:Obs.Sampled "engine/round_wall_ns") obs in
  let obs_rounds_c = Option.map (fun o -> Obs.counter o ~tier:Obs.Det "engine/rounds") obs in
  let obs_frames_c = Option.map (fun o -> Obs.counter o ~tier:Obs.Det "engine/frames") obs in
  let obs_sessions_c = Option.map (fun o -> Obs.counter o ~tier:Obs.Det "engine/sessions") obs in
  let obs_live_g = Option.map (fun o -> Obs.gauge o ~tier:Obs.Det "engine/live") obs in
  let obs_peak_g = Option.map (fun o -> Obs.gauge o ~tier:Obs.Det "engine/peak_live") obs in
  let record_frame sz =
    match obs_frame_h with Some h -> Obs.Hist.record h sz | None -> ()
  in
  let pending = ref (admission_order specs) in
  let finished = ref [] in
  let er = ref 0 in
  let frames_sent = ref 0 in
  let naive_frames = ref 0 in
  let frame_bytes = ref 0 in
  let payload_bytes = ref 0 in
  let peak_live = ref 0 in
  let cap = List.length specs in
  (* The live set, slot-indexed in admission order; retirement compacts in
     place (stable), so iterating slots 0 .. k_live-1 always visits sessions
     in admission order — the order frames carry their entries in. *)
  let live_arr : 'a live option array = Array.make cap None in
  let k_live = ref 0 in
  let live li = match live_arr.(li) with Some l -> l | None -> assert false in
  (* Per-round structures, preallocated at session capacity and reused every
     round: the per-slot round matrices and the slot -> sid map, which
     together are the round view the transport reads and delivers into.
     Steady-state rounds allocate only protocol-level transients (payload
     strings, continuation spines), never per-engine-state structures and
     never the per-session matrices: a slot's round matrix and its
     byzantine override rows are scratch, allocated lazily on the slot's
     first use and overwritten in full every round. The scratch carries no
     cross-round state, so slot compaction after retirement can hand a
     slot's scratch to a different session untouched.

     A slot's round is kept recipient-major, [msgs.(li).(dst).(src)], so
     the send phase's one store per cell is also the delivery: the
     exchange leaves in each off-diagonal cell what its recipient received,
     and party [r]'s continuation gets the row [msgs.(li).(r)] itself. The
     next send phase overwrites every cell before anything reads it again.

     Borrowed-buffer contract (see DESIGN.md, "Hot path & allocation
     discipline"): the inbox row passed to a protocol continuation and the
     [Adversary.view] matrix are owned by the engine and valid only until
     the continuation / the round's last [act] call returns. Retaining the
     *option values* (immutable boxes and payload strings) is fine;
     retaining the *arrays* is not. Every protocol in lib/ consumes its
     inbox strictly before constructing its next [Step], and every
     adversary reads [view] only inside [act]. *)
  let msgs : string option array array array = Array.make cap [||] in
  (* Byzantine override rows, [byz_mats.(li).(k).(r)] for the [k]-th
     corrupt party: only touched when the corruption set is non-empty, so
     honest runs never allocate them. *)
  let corrupt_parties =
    Array.of_list (List.filter (fun s -> corrupt.(s)) (List.init n Fun.id))
  in
  let byz_mats : string option array array array = Array.make cap [||] in
  (* The frame ledger is arithmetic over the sent matrices, the same on every
     transport, accumulated by the send phase's walk over each sender's
     cells. While fewer than 128 sessions are live, every edge carries fewer
     than 128 entries, so each frame's entry count is a one-byte varint, and
     when nothing records the per-frame sizes ([summed]) the round's frame
     bytes are [n(n-1) * (varint round + 1)] plus every entry's bytes
     (varint sid + varint len + payload), added straight to [frame_bytes].
     Otherwise the walk fills the per-edge counters below (entry count;
     entry bytes), flat-indexed by [s * n + r], and the frame pass sizes
     each edge's frame from them. *)
  let edge_cnt = Array.make (n * n) 0 in
  let edge_bytes = Array.make (n * n) 0 in
  (* The round view handed to the transport: built once, so a round costs
     the transport no allocation on the loop's side. [sids] follows the live
     set through admission and compaction; only [live] changes per round. *)
  let view = { Transport.live = 0; sids = Array.make cap 0; msgs } in
  let retire l =
    (match obs_life_h with Some h -> Obs.Hist.record h l.l_rounds | None -> ());
    (match obs_sessions_c with Some c -> Obs.incr c 1 | None -> ());
    for i = 0 to n - 1 do
      Obs.finish l.l_obs ~party:i ~round:l.l_rounds
    done;
    finished :=
      ( l.l_index,
        {
          r_sid = l.l_sid;
          r_outputs =
            Array.map
              (function Proto.Done v -> Some v | _ -> None)
              l.l_states;
          r_metrics = Metrics.of_obs ~rounds:l.l_rounds l.l_obs;
          r_admitted_at = l.l_admitted;
          r_retired_at = !er;
        } )
      :: !finished
  in
  let admit (idx, spec) =
    let handle = Obs.session obs ~session:spec.sid ~n in
    let states =
      Array.init n (fun me -> spec.protocol (ctx_maker spec.setup ~n ~t ~me))
    in
    Array.iteri
      (fun i s ->
        states.(i) <- settle ~obs:handle ~corrupt ~round:0 i s)
      states;
    let l =
      {
        l_index = idx;
        l_sid = spec.sid;
        l_adversary = spec.adversary;
        l_states = states;
        l_obs = handle;
        l_rounds = 0;
        l_admitted = !er;
      }
    in
    if honest_running ~corrupt states then begin
      live_arr.(!k_live) <- Some l;
      view.sids.(!k_live) <- spec.sid;
      incr k_live
    end
    else retire l
  in
  (* [pending] is in admission order, sorted by start round, so the sessions
     due by round [r] are its head: admission costs O(admitted), not a pass
     over every pending spec each round. *)
  let rec admit_due r =
    match !pending with
    | ((_, spec) as p) :: rest when spec.start_round <= r ->
        pending := rest;
        admit p;
        admit_due r
    | _ -> ()
  in
  (* 1–4. Send phase: every live session computes one of its own rounds'
     message matrix — prescribed cells, the rushing adversary's overrides
     in (sender, recipient) order, byzantine truncation, the accounting
     into the session's recorder and the frame ledger. *)
  let step ~summed li =
    let l = live li in
    l.l_rounds <- l.l_rounds + 1;
    let states = l.l_states in
    if msgs.(li) == [||] then msgs.(li) <- Array.make_matrix n n None;
    let m = msgs.(li) in
    (* One store per cell. A frame-per-session transport would send one
       frame per peer from every party whose instance is still stepping. *)
    let stepping = ref 0 in
    for s = 0 to n - 1 do
      match states.(s) with
      | Proto.Step (out, _) ->
          incr stepping;
          for r = 0 to n - 1 do
            m.(r).(s) <- out r
          done
      | Proto.Done _ ->
          for r = 0 to n - 1 do
            m.(r).(s) <- None
          done
      | Proto.Push _ | Proto.Pop _ | Proto.Probe _ -> assert false
    done;
    naive_frames := !naive_frames + (!stepping * (n - 1));
    (* The adversary views the untouched prescribed cells while every
       override is computed into the byzantine scratch; the overrides are
       written back only after the round's last [act] call, so no
       strategy sees another corrupt sender's replacement early. *)
    if n_corrupt > 0 then begin
      let view = { Adversary.round = l.l_rounds; n; t; corrupt; inbound = m } in
      if byz_mats.(li) == [||] then byz_mats.(li) <- Array.make_matrix n_corrupt n None;
      let byz = byz_mats.(li) in
      for k = 0 to n_corrupt - 1 do
        let s = corrupt_parties.(k) and row = byz.(k) in
        for r = 0 to n - 1 do
          row.(r) <-
            (match l.l_adversary.Adversary.act view ~sender:s ~recipient:r with
            | Some x when String.length x > max_byzantine_bytes ->
                Some (String.sub x 0 max_byzantine_bytes)
            | other -> other)
        done
      done;
      for k = 0 to n_corrupt - 1 do
        let s = corrupt_parties.(k) and row = byz.(k) in
        for r = 0 to n - 1 do
          m.(r).(s) <- row.(r)
        done
      done
    end;
    (* Accounting, one walk over each sender's cells (self free): the
       sender's charge to the session's recorder, the payload bytes, and
       each entry's frame bytes — summed into [frame_bytes], or per edge. *)
    let sid_bytes = Wire.Frame.sid_bytes l.l_sid in
    for s = 0 to n - 1 do
      let sent = ref 0 and bytes = ref 0 and entries = ref 0 in
      for r = 0 to n - 1 do
        if r <> s then
          match m.(r).(s) with
          | None -> ()
          | Some x ->
              let len = String.length x in
              let size = Wire.Frame.entry_bytes ~sid_bytes len in
              incr sent;
              bytes := !bytes + len;
              if summed then entries := !entries + size
              else begin
                let e = (s * n) + r in
                edge_cnt.(e) <- edge_cnt.(e) + 1;
                edge_bytes.(e) <- edge_bytes.(e) + size
              end
      done;
      Obs.sent l.l_obs ~party:s ~round:l.l_rounds
        ~timeline_round:!er ~byzantine:corrupt.(s) ~msgs:!sent
        ~bytes:!bytes m;
      frame_bytes := !frame_bytes + !entries;
      payload_bytes := !payload_bytes + !bytes
    done
  in
  (* 6. Deliver and advance a live session. After the exchange, [m.(i).(s)]
     for [s <> i] is what party [i] received on edge [s -> i] — [Some x]
     exactly when that edge's frame carried [(sid, x)] — and [m.(i).(i)]
     is still the party's own self slot, so row [i] is party [i]'s inbox,
     borrowed by the protocol for the duration of the continuation (the
     contract documented above and in proto.mli). *)
  let deliver li =
    let l = live li in
    let m = msgs.(li) in
    let states = l.l_states in
    for i = 0 to n - 1 do
      match states.(i) with
      | Proto.Step (_, k) ->
          states.(i) <-
            settle ~obs:l.l_obs ~corrupt ~round:l.l_rounds i
              (k m.(i))
      | Proto.Done _ -> ()
      | Proto.Push _ | Proto.Pop _ | Proto.Probe _ -> assert false
    done
  in
  while !pending <> [] || !k_live > 0 do
    if !er >= max_rounds then raise (Round_limit_exceeded max_rounds);
    (* 0. Admit sessions whose start round has arrived. *)
    admit_due !er;
    peak_live := max !peak_live !k_live;
    (match obs with
    | Some o -> Obs.live_sessions o ~round:!er ~live:!k_live
    | None -> ());
    (match obs_live_g with Some g -> Obs.set_gauge g !k_live | None -> ());
    (match obs_peak_g with Some g -> Obs.max_gauge g !k_live | None -> ());
    let wall_t0 =
      match obs_wall_h with Some _ -> Unix.gettimeofday () | None -> 0.0
    in
    let k_now = !k_live in
    let round_now = !er in
    let summed = Option.is_none obs && k_now < 128 in
    (* 1–4. The send phase ([step] above). *)
    for li = 0 to k_now - 1 do
      step ~summed li
    done;
    (* 5. Account one coalesced frame per ordered pair (keep-alive empties
       included), sized by {!Wire.Frame} as {!Wire.Frame.write_edge} writes
       it. Summed (no recorder sizes single frames, and below 128 live
       sessions every count has [k_now]'s one-byte varint), the entries are
       added already; otherwise each edge's frame is sized from its
       counters, which are zeroed for the next round. *)
    frames_sent := !frames_sent + (n * (n - 1));
    if summed then
      frame_bytes :=
        !frame_bytes + (n * (n - 1) * Wire.Frame.header_bytes ~round:round_now ~count:k_now)
    else begin
      for s = 0 to n - 1 do
        for r = 0 to n - 1 do
          if s <> r then begin
            let e = (s * n) + r in
            let sz =
              Wire.Frame.header_bytes ~round:round_now ~count:edge_cnt.(e) + edge_bytes.(e)
            in
            record_frame sz;
            frame_bytes := !frame_bytes + sz;
            edge_cnt.(e) <- 0;
            edge_bytes.(e) <- 0
          end
        done
      done
    end;
    (match obs_frames_c with
    | Some c -> Obs.incr c (n * (n - 1))
    | None -> ());
    (* Move the round's bytes: the exchange leaves in each cell of [view]
       what its recipient received, and the delivery phase reads it. *)
    view.live <- k_now;
    transport.Transport.exchange ~round:round_now ~entries:view;
    for li = 0 to k_now - 1 do
      deliver li
    done;
    (* 7. Retire sessions whose honest parties have all terminated; stable
       in-place compaction keeps slot order = admission order. *)
    let w = ref 0 in
    for li = 0 to !k_live - 1 do
      let l = live li in
      if honest_running ~corrupt l.l_states then begin
        if !w <> li then begin
          live_arr.(!w) <- live_arr.(li);
          view.sids.(!w) <- view.sids.(li)
        end;
        incr w
      end
      else retire l
    done;
    for li = !w to !k_live - 1 do
      live_arr.(li) <- None
    done;
    k_live := !w;
    (* Post-retirement, so the gauge drains to 0 when the last session
       completes rather than holding the final round's entry count. *)
    (match obs_live_g with Some g -> Obs.set_gauge g !k_live | None -> ());
    (match obs_rounds_c with Some c -> Obs.incr c 1 | None -> ());
    (match obs_wall_h with
    | Some h ->
        Obs.Hist.record h
          (int_of_float ((Unix.gettimeofday () -. wall_t0) *. 1e9))
    | None -> ());
    (match on_round with
    | Some f -> f ~round:round_now ~live:!k_live
    | None -> ());
    incr er
  done;
  let results =
    List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !finished)
  in
  let honest_bits_total =
    List.fold_left (fun acc s -> acc + s.r_metrics.Metrics.honest_bits) 0 results
  in
  {
    sessions = results;
    aggregate =
      {
        engine_rounds = !er;
        sessions_completed = List.length results;
        peak_live = !peak_live;
        frames_sent = !frames_sent;
        naive_frames = !naive_frames;
        frames_saved = !naive_frames - !frames_sent;
        frame_bytes = !frame_bytes;
        payload_bytes = !payload_bytes;
        honest_bits_total;
      };
  }
