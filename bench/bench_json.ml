(* Minimal JSON emitter for machine-readable benchmark results, so the perf
   trajectory is trackable across PRs (BENCH_*.json files at the repo root).
   Strings are escaped with the observability plane's JSON escape. *)

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null

let emit_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (Obs.Json.escape s);
      Buffer.add_char buf '"'
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Null -> Buffer.add_string buf "null"

(* Shared provenance meta, stamped into every ledger: BENCH_*.json numbers
   are only comparable across PRs when each file records what produced them
   (commit, compiler, and the host's core count, which bounds what a timed
   row could measure). Ledgers written before the harness ran on one domain
   only also carry a [domains] field, which readers ignore. *)

let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some line
    | _ -> None
  with _ -> None

let git_rev =
  lazy
    (match command_line "git rev-parse --short HEAD 2>/dev/null" with
    | None | Some "" -> "unknown"
    | Some rev -> (
        (* A ledger regenerated from an uncommitted tree must say so: the
           named commit alone cannot reproduce it. *)
        match command_line "git status --porcelain 2>/dev/null" with
        | Some "" -> rev
        | Some _ -> rev ^ "+dirty"
        | None -> rev))

let shared_meta () =
  [
    ("git_rev", Str (Lazy.force git_rev));
    ("ocaml_version", Str Sys.ocaml_version);
    ("nproc", Int (Domain.recommended_domain_count ()));
  ]

let emit_obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_char buf '"';
      Buffer.add_string buf (Obs.Json.escape key);
      Buffer.add_string buf "\": ";
      emit_value buf v)
    fields;
  Buffer.add_char buf '}'

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A smoke run: a ledger [Ledger.recomputed] names must reproduce its
   committed copy, [path] in the working directory. *)
let check_committed ~path (fresh : Ledger.t) =
  let stale fmt = Printf.ksprintf (fun msg -> failwith ("regenerate " ^ path ^ ": " ^ msg)) fmt in
  let committed =
    if not (Sys.file_exists path) then stale "no committed copy"
    else
      match Ledger.of_string (read_file path) with
      | Ok l -> l
      | Error msg -> stale "committed copy malformed: %s" msg
  in
  match Ledger.stale ~committed ~fresh with
  | None -> Printf.printf "[%s: the committed copy reproduces]\n" path
  | Some diff -> stale "%s" diff

(* {"meta": {...}, "rows": [{...}, ...]} — one row object per table line.
   The serialised bytes are read back and held to their ledger's gates
   (bench/ledger.ml) before anything is written: a failing gate refuses the
   write. A smoke run writes nothing, checks only the Exact gates and
   compares a recomputed ledger with its committed copy. *)
let write ~smoke ~path ~meta ~rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"meta\": ";
  emit_obj buf (meta @ shared_meta ());
  Buffer.add_string buf ",\n  \"rows\": [";
  List.iteri
    (fun i row ->
      Buffer.add_string buf (if i > 0 then ",\n    " else "\n    ");
      emit_obj buf row)
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let bytes = Buffer.contents buf in
  let ledger =
    match Ledger.of_string bytes with
    | Ok l -> l
    | Error msg -> failwith (Printf.sprintf "%s: malformed ledger: %s" path msg)
  in
  let verdicts = Ledger.check ~timed:(not smoke) ledger in
  Printf.printf "\n[gates for %s%s]\n" path
    (if smoke then ", exact only (smoke)" else "");
  if verdicts = [] then print_endline "  (no gates declared)";
  List.iter
    (fun ((g : Ledger.gate), v) ->
      Printf.printf "  %-32s %s\n" g.Ledger.name (Ledger.show v))
    verdicts;
  (match Ledger.failed verdicts with
  | [] -> ()
  | names ->
      failwith
        (Printf.sprintf "%s: gates failed (%s); ledger not written" path
           (String.concat ", " names)));
  if smoke && List.mem ledger.Ledger.experiment Ledger.recomputed then
    check_committed ~path ledger;
  if smoke then Printf.printf "[smoke: not writing %s]\n" path
  else begin
    let oc = open_out path in
    output_string oc bytes;
    close_out oc;
    Printf.printf "[wrote %s: %d rows]\n" path (List.length rows)
  end
