(* Reference specification of the synchronous rushing-adversary round loop:
   a frozen, deliberately naive, one-session executor — the body [Net.Sim.run]
   had before it became a one-session call into the engine's round loop. It
   allocates fresh matrices every round and shares no execution code with
   lib/, so the
   differential tests (test_sim_spec.ml, test_engine.ml) compare the
   production loop against an independent statement of the semantics rather
   than against itself. Its own label table, message list and CSV writer
   are the accounting lib/ had before it charged messages to the obs span
   stacks.

   Kept byte-for-byte in behaviour: per-round prescribed matrices, the
   rushing adversary's view (1-based round number), truncation of byzantine
   messages at [Sim.max_byzantine_bytes], accounting in (sender, recipient)
   order with self-addressed messages free, delivery, and the obs span
   and probe stamps (session-local rounds completed). The one convention it
   does not share with the production loop is the obs timeline stamp:
   the spec files traffic under the session round, the engine under the
   0-based engine round; the differential tests compare everything else. *)

open Net

exception Round_limit_exceeded of int

(* ---- message list and CSV --------------------------------------------------- *)

type event = {
  round : int;
  src : int;
  dst : int;
  bytes : int;
  byzantine : bool;
  label : string option;
  session : int;
}

type trace = { mutable rev_events : event list }

let trace () = { rev_events = [] }

let to_csv trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "round,src,dst,bytes,byzantine,label,session\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%b,%s,%d\n" e.round e.src e.dst e.bytes
           e.byzantine
           (Option.value ~default:"" e.label)
           e.session))
    (List.rev trace.rev_events);
  Buffer.contents buf

(* ---- label table -------------------------------------------------------------- *)

let record_label table ~label ~bytes =
  let label = match label with Some l -> l | None -> "(unlabeled)" in
  Hashtbl.replace table label
    ((8 * bytes) + Option.value ~default:0 (Hashtbl.find_opt table label))

let sorted_labels table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (la, a) (lb, b) ->
         if a <> b then compare b a else compare la lb)

(* ---- the executor --------------------------------------------------------------- *)

let run ?(max_rounds = 20_000) ?(allow_excess_corruptions = false) ?trace
    ?obs ?(setup = `Plain) ~n ~t ~corrupt ~adversary protocol =
  if Array.length corrupt <> n then invalid_arg "Sim_spec.run: corrupt array size";
  let make_ctx =
    match setup with
    | `Plain -> Ctx.make
    | `Authenticated -> Ctx.make_authenticated
  in
  let n_corrupt = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 corrupt in
  if n_corrupt > t && not allow_excess_corruptions then
    invalid_arg "Sim_spec.run: more corruptions than t";
  let obs = Option.map (fun o -> Obs.session (Some o) ~session:0 ~n) obs in
  let rounds = ref 0 in
  let honest_bits = ref 0 and honest_msgs = ref 0 in
  let byz_bits = ref 0 and byz_msgs = ref 0 in
  let by_label = Hashtbl.create 16 in
  let states = Array.init n (fun me -> protocol (make_ctx ~n ~t ~me)) in
  let outputs = Array.make n None in
  let label_stacks = Array.make n [] in
  let rec settle ~round i = function
    | Proto.Push (l, rest) ->
        label_stacks.(i) <- l :: label_stacks.(i);
        (match obs with
        | Some o -> Obs.push o ~party:i ~round ~label:l
        | None -> ());
        settle ~round i rest
    | Proto.Pop rest ->
        (label_stacks.(i) <-
           (match label_stacks.(i) with [] -> [] | _ :: tl -> tl));
        (match obs with
        | Some o -> Obs.pop o ~party:i ~round
        | None -> ());
        settle ~round i rest
    | Proto.Probe (key, value, rest) ->
        (match obs with
        | Some o ->
            Obs.probe o ~party:i ~round ~byzantine:corrupt.(i) ~key
              ~value
        | None -> ());
        settle ~round i rest
    | (Proto.Done _ | Proto.Step _) as s -> s
  in
  Array.iteri (fun i s -> states.(i) <- settle ~round:0 i s) states;
  let honest_running () =
    let running = ref false in
    Array.iteri
      (fun i s ->
        match s with
        | Proto.Step _ when not corrupt.(i) -> running := true
        | _ -> ())
      states;
    !running
  in
  while honest_running () do
    incr rounds;
    if !rounds > max_rounds then raise (Round_limit_exceeded max_rounds);
    (* 1. Prescribed outboxes for every party. *)
    let prescribed =
      Array.map
        (fun s ->
          match s with
          | Proto.Step (out, _) -> Array.init n out
          | Proto.Done _ -> Array.make n None
          | Proto.Push _ | Proto.Pop _ | Proto.Probe _ -> assert false)
        states
    in
    (* 2. Rushing adversary picks the corrupted parties' actual messages. *)
    let view = { Adversary.round = !rounds; n; t; corrupt; inbound = Array.init n (fun r -> Array.init n (fun s -> prescribed.(s).(r))) } in
    let actual =
      Array.init n (fun s ->
          if not corrupt.(s) then prescribed.(s)
          else
            Array.init n (fun r ->
                match adversary.Adversary.act view ~sender:s ~recipient:r with
                | Some m when String.length m > Sim.max_byzantine_bytes ->
                    Some (String.sub m 0 Sim.max_byzantine_bytes)
                | other -> other))
    in
    (* 3. Accounting (self-addressed messages are free). *)
    for s = 0 to n - 1 do
      for r = 0 to n - 1 do
        if s <> r then
          match actual.(s).(r) with
          | None -> ()
          | Some m ->
              let label =
                match label_stacks.(s) with [] -> None | l :: _ -> Some l
              in
              let bytes = String.length m in
              (match trace with
              | Some tr ->
                  tr.rev_events <-
                    {
                      round = !rounds;
                      src = s;
                      dst = r;
                      bytes;
                      byzantine = corrupt.(s);
                      label;
                      session = 0;
                    }
                    :: tr.rev_events
              | None -> ());
              (match obs with
              | Some o ->
                  Obs.message o ~party:s ~dst:r ~round:!rounds
                    ~timeline_round:!rounds ~bytes ~byzantine:corrupt.(s)
              | None -> ());
              if corrupt.(s) then begin
                byz_bits := !byz_bits + (8 * bytes);
                incr byz_msgs
              end
              else begin
                honest_bits := !honest_bits + (8 * bytes);
                incr honest_msgs;
                record_label by_label ~label ~bytes
              end
      done
    done;
    (* 4. Deliver and advance. *)
    for i = 0 to n - 1 do
      match states.(i) with
      | Proto.Step (_, k) ->
          let inbox = Array.init n (fun s -> actual.(s).(i)) in
          states.(i) <- settle ~round:!rounds i (k inbox)
      | Proto.Done _ -> ()
      | Proto.Push _ | Proto.Pop _ | Proto.Probe _ -> assert false
    done
  done;
  (match obs with
  | Some o ->
      for i = 0 to n - 1 do
        Obs.finish o ~party:i ~round:!rounds
      done
  | None -> ());
  Array.iteri
    (fun i s -> match s with Proto.Done v -> outputs.(i) <- Some v | _ -> ())
    states;
  let metrics =
    {
      Metrics.rounds = !rounds;
      honest_bits = !honest_bits;
      honest_msgs = !honest_msgs;
      byz_bits = !byz_bits;
      byz_msgs = !byz_msgs;
      label_bits = sorted_labels by_label;
    }
  in
  { Sim.outputs; metrics }
