(** Message-level execution traces.

    When a {!Trace.t} is passed to the round loop ({!Loop.run_core}, so
    {!Sim.run} and the [Engine] backends), every
    delivered message is recorded as an {!event}: round, endpoints, size,
    whether the sender was corrupted, the sender's active metrics label, and
    the session it belongs to. Traces feed the CLI's [trace] command (CSV
    export for external analysis) and the summary printers used when
    debugging protocol communication patterns. *)

type event = {
  round : int;
  src : int;
  dst : int;
  bytes : int;
  byzantine : bool;  (** sender was corrupted *)
  label : string option;  (** sender's innermost {!Proto.with_label} scope *)
  session : int;  (** session id; 0 for single-session runs *)
}

type t = { mutable rev_events : event list; mutable count : int }

let create () = { rev_events = []; count = 0 }

let record trace event =
  trace.rev_events <- event :: trace.rev_events;
  trace.count <- trace.count + 1

let events trace = List.rev trace.rev_events
let length trace = trace.count

(* The summaries below fold over [rev_events] directly: they are
   order-insensitive, and [events] would rebuild the whole list per call. *)

(** {1 Summaries} *)

(** Honest bits per round, ascending rounds; rounds without traffic omitted. *)
let bits_per_round trace =
  let table = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if not e.byzantine then
        Hashtbl.replace table e.round
          ((8 * e.bytes) + Option.value ~default:0 (Hashtbl.find_opt table e.round)))
    trace.rev_events;
  Hashtbl.fold (fun r b acc -> (r, b) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** [sent_matrix trace ~n]: total bytes sent from each party to each party. *)
let sent_matrix trace ~n =
  let m = Array.make_matrix n n 0 in
  List.iter
    (fun e ->
      if e.src >= 0 && e.src < n && e.dst >= 0 && e.dst < n then
        m.(e.src).(e.dst) <- m.(e.src).(e.dst) + e.bytes)
    trace.rev_events;
  m

(** The communication-heaviest rounds, descending, at most [top]. *)
let hottest_rounds ?(top = 10) trace =
  bits_per_round trace
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < top)

(** {1 Export} *)

let csv_header = "round,src,dst,bytes,byzantine,label,session"

let to_csv trace =
  let buf = Buffer.create (64 * (1 + length trace)) in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%b,%s,%d\n" e.round e.src e.dst e.bytes
           e.byzantine
           (Option.value ~default:"" e.label)
           e.session))
    (events trace);
  Buffer.contents buf

let pp_summary fmt trace ~n =
  let matrix = sent_matrix trace ~n in
  Format.fprintf fmt "%d messages@." (length trace);
  Format.fprintf fmt "hottest rounds (honest kbits):@.";
  List.iter
    (fun (round, bits) ->
      Format.fprintf fmt "  round %4d: %8.1f@." round (float_of_int bits /. 1000.))
    (hottest_rounds ~top:5 trace);
  Format.fprintf fmt "per-sender bytes:@.";
  Array.iteri
    (fun src row ->
      Format.fprintf fmt "  party %2d: %8d@." src (Array.fold_left ( + ) 0 row))
    matrix
