(* The two engine backends over the one round loop (Net.Loop): the loopback
   simulator and the poll socket mesh. With a recorder attached, each also
   records the run's time series into it through the loop's [on_round]
   hook. *)

open Net
include Loop

let run_core ?max_rounds ?obs ?on_round ~transport ~n ~t
    ~corrupt specs =
  if Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 corrupt > t then
    invalid_arg "Engine: more corruptions than t";
  Loop.run_core ?max_rounds ?obs ?on_round ~transport ~n ~t
    ~corrupt specs

(* ---- the recorder's time series ------------------------------------------ *)

(* With a recorder attached, a backend samples the process every 16 engine
   rounds and once more when the run ends: its GC counters in words, its RSS
   (-1 without /proc) and the transport's own [extra] readings. *)
let sample_every = 16

let process_readings () =
  let q = Gc.quick_stat () in
  [
    ("minor_words", int_of_float q.Gc.minor_words);
    ("promoted_words", int_of_float q.Gc.promoted_words);
    ("major_words", int_of_float q.Gc.major_words);
    ("minor_collections", q.Gc.minor_collections);
    ("major_collections", q.Gc.major_collections);
    ("heap_words", q.Gc.heap_words);
    ("compactions", q.Gc.compactions);
    ("rss_bytes", Option.value ~default:(-1) (Net_poll.rss_bytes ()));
  ]

(* [run on_round] is one run of the loop; every session has retired when it
   returns. *)
let sampled ?obs ~extra run =
  match obs with
  | None -> run None
  | Some o ->
      let sample ~round ~live =
        Obs.sample o ~round ~live (process_readings () @ extra ())
      in
      let outcome =
        run
          (Some
             (fun ~round ~live ->
               if round mod sample_every = 0 then sample ~round ~live))
      in
      sample ~round:outcome.aggregate.engine_rounds ~live:0;
      outcome

(* ---- simulator backend ---------------------------------------------------- *)

let run_sim ?max_rounds ?obs ~n ~t ~corrupt specs =
  sampled ?obs ~extra:(fun () -> []) (fun on_round ->
      run_core ?max_rounds ?obs ?on_round
        ~transport:(Transport.loopback ()) ~n ~t ~corrupt specs)

(* ---- poll backend ---------------------------------------------------------- *)

let poll_readings net () =
  let s = Net_poll.stats net and waits = Net_poll.select_waits net in
  [
    ("poll_rounds", s.Net_poll.p_rounds);
    ("poll_frames", s.Net_poll.p_frames);
    ("poll_parked", s.Net_poll.p_parked);
    ("poll_max_backlog", s.Net_poll.p_max_backlog);
    ("select_wait_mean_ns", int_of_float (Obs.Hist.mean waits));
    ("select_wait_max_ns", Obs.Hist.max_value waits);
  ]

(* The mesh's select waits and write stalls join the recorder's two
   sampled-tier histograms, in nanoseconds, once the run is over. *)
let run_poll ?max_rounds ?obs ~n ~t ~corrupt specs =
  let net = Net_poll.create ~n () in
  Fun.protect
    ~finally:(fun () -> Net_poll.close net)
    (fun () ->
      let outcome =
        sampled ?obs ~extra:(poll_readings net) (fun on_round ->
            run_core ?max_rounds ?obs ?on_round
              ~transport:(Net_poll.transport net) ~n ~t ~corrupt specs)
      in
      Option.iter
        (fun o ->
          let merge name h =
            Obs.Hist.merge ~into:(Obs.hist o ~tier:Obs.Sampled name) h
          in
          merge "poll/select_wait_ns" (Net_poll.select_waits net);
          merge "poll/write_stall_ns" (Net_poll.write_stalls net))
        obs;
      outcome)
