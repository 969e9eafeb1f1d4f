(* One protocol instance in the synchronous round loop: a one-session run of
   Loop.run_core over the loopback transport. *)

type 'a outcome = {
  outputs : 'a option array;
  metrics : Metrics.t;
}

exception Round_limit_exceeded = Loop.Round_limit_exceeded

let max_byzantine_bytes = Loop.max_byzantine_bytes

let run ?max_rounds ?(allow_excess_corruptions = false) ?obs
    ?(setup = `Plain) ~n ~t ~corrupt ~adversary protocol =
  if Array.length corrupt <> n then invalid_arg "Sim.run: corrupt array size";
  let n_corrupt = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 corrupt in
  (* [allow_excess_corruptions] deliberately breaks the t < n/3 contract — the
     resilience experiment measures what fails beyond the bound. *)
  if n_corrupt > t && not allow_excess_corruptions then
    invalid_arg "Sim.run: more corruptions than t";
  match
    Loop.run_core ?max_rounds ?obs
      ~transport:(Transport.loopback ()) ~n ~t ~corrupt
      [ Loop.session ~adversary ~setup ~sid:0 protocol ]
  with
  | { Loop.sessions = [ r ]; _ } ->
      { outputs = r.Loop.r_outputs; metrics = r.Loop.r_metrics }
  | _ -> assert false

let corrupt_first ~n k =
  if k < 0 || k > n then invalid_arg "Sim.corrupt_first";
  Array.init n (fun i -> i < k)

let honest_outputs ~corrupt outcome =
  let out = ref [] in
  Array.iteri
    (fun i o ->
      if not corrupt.(i) then
        match o with
        | Some v -> out := v :: !out
        | None -> failwith (Printf.sprintf "party %d did not terminate" i))
    outcome.outputs;
  List.rev !out
