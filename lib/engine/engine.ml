(* The two engine backends over the one round loop (Net.Loop): the loopback
   simulator and the poll socket mesh, plus the periodic GC/RSS sampler
   their [on_round] hook drives. *)

open Net
include Loop

let run_core ?max_rounds ?obs ?on_round ~transport ~n ~t
    ~corrupt specs =
  if Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 corrupt > t then
    invalid_arg "Engine: more corruptions than t";
  Loop.run_core ?max_rounds ?obs ?on_round ~transport ~n ~t
    ~corrupt specs

(* ---- periodic time-series sampler ----------------------------------------- *)

module Sampler = struct
  type sample = {
    s_idx : int;
    s_round : int;
    s_live : int;
    s_minor_words : float;
    s_promoted_words : float;
    s_major_words : float;
    s_minor_collections : int;
    s_major_collections : int;
    s_heap_words : int;
    s_compactions : int;
    s_rss_bytes : int;
    s_poll : Net_poll.stats option;
  }

  type t = { ring : sample option array; mutable recorded : int }

  let create ?(capacity = 1024) () =
    { ring = Array.make (max 1 capacity) None; recorded = 0 }

  let capacity t = Array.length t.ring
  let recorded t = t.recorded
  let length t = min t.recorded (capacity t)
  let dropped t = t.recorded - length t

  let record t ~round ?(live = -1) ?poll () =
    let q = Gc.quick_stat () in
    let rss = match Net_poll.rss_bytes () with Some b -> b | None -> -1 in
    let s =
      {
        s_idx = t.recorded;
        s_round = round;
        s_live = live;
        s_minor_words = q.Gc.minor_words;
        s_promoted_words = q.Gc.promoted_words;
        s_major_words = q.Gc.major_words;
        s_minor_collections = q.Gc.minor_collections;
        s_major_collections = q.Gc.major_collections;
        s_heap_words = q.Gc.heap_words;
        s_compactions = q.Gc.compactions;
        s_rss_bytes = rss;
        s_poll = poll;
      }
    in
    t.ring.(t.recorded mod capacity t) <- Some s;
    t.recorded <- t.recorded + 1

  let samples t =
    (* Chronological: when the ring has wrapped the oldest retained sample
       sits just past the write position. *)
    let cap = capacity t and n = length t in
    let start = if t.recorded <= cap then 0 else t.recorded mod cap in
    List.init n (fun i ->
        match t.ring.((start + i) mod cap) with
        | Some s -> s
        | None -> assert false)

  let to_jsonl t =
    let buf = Buffer.create 1024 in
    Printf.bprintf buf
      {|{"kind":"sampler","capacity":%d,"recorded":%d,"dropped":%d}|}
      (capacity t) t.recorded (dropped t);
    Buffer.add_char buf '\n';
    List.iter
      (fun s ->
        Printf.bprintf buf
          {|{"kind":"sample","idx":%d,"round":%d,"live":%d,"minor_words":%.0f,"promoted_words":%.0f,"major_words":%.0f,"minor_collections":%d,"major_collections":%d,"heap_words":%d,"compactions":%d,"rss_bytes":%d|}
          s.s_idx s.s_round s.s_live s.s_minor_words s.s_promoted_words
          s.s_major_words s.s_minor_collections s.s_major_collections
          s.s_heap_words s.s_compactions s.s_rss_bytes;
        (match s.s_poll with
        | None -> ()
        | Some p ->
            Printf.bprintf buf
              {|,"poll_rounds":%d,"poll_frames":%d,"poll_parked":%d,"poll_max_backlog":%d,"select_wait_mean_s":%.9f,"select_wait_max_s":%.9f|}
              p.Net_poll.p_rounds p.Net_poll.p_frames p.Net_poll.p_parked
              p.Net_poll.p_max_backlog p.Net_poll.p_select_wait_mean_s
              p.Net_poll.p_select_wait_max_s);
        Buffer.add_string buf "}\n")
      (samples t);
    Buffer.contents buf
end


let sample_every = 16

let sampler_hook ?sampler ?poll_stats () =
  match sampler with
  | None -> None
  | Some smp ->
      Some
        (fun ~round ~live ->
          if round mod sample_every = 0 then
            let poll =
              match poll_stats with Some f -> Some (f ()) | None -> None
            in
            Sampler.record smp ~round ~live ?poll ())

(* ---- simulator backend ---------------------------------------------------- *)

let run_sim ?max_rounds ?obs ?sampler ~n ~t ~corrupt specs =
  let on_round = sampler_hook ?sampler () in
  run_core ?max_rounds ?obs ?on_round
    ~transport:(Transport.loopback ()) ~n ~t ~corrupt specs

(* ---- poll backend ---------------------------------------------------------- *)

(* The poll loop's duration events land in two sampled-tier histograms, in
   nanoseconds. *)
let poll_sink o =
  let select_h = Obs.hist o ~tier:Obs.Sampled "poll/select_wait_ns" in
  let stall_h = Obs.hist o ~tier:Obs.Sampled "poll/write_stall_ns" in
  let ns s = int_of_float (s *. 1e9) in
  {
    Net_poll.sink_select_wait = (fun s -> Obs.Hist.record select_h (ns s));
    sink_write_stall = (fun s -> Obs.Hist.record stall_h (ns s));
  }

let run_poll ?max_rounds ?obs ?sampler ~n ~t ~corrupt specs =
  let net = Net_poll.create ~n () in
  Net_poll.set_sink net (Option.map poll_sink obs);
  let on_round =
    sampler_hook ?sampler ~poll_stats:(fun () -> Net_poll.stats net) ()
  in
  Fun.protect
    ~finally:(fun () -> Net_poll.close net)
    (fun () ->
      run_core ?max_rounds ?obs ?on_round
        ~transport:(Net_poll.transport net) ~n ~t ~corrupt specs)
