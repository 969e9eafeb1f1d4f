(* Runtime observability plane, layered over (not replacing) lib/telemetry.

   Telemetry answers "where did the bits go" with byte-audited span trees;
   this module answers "how is the run behaving" — latency and size
   distributions, a loadable trace timeline, and a live stats endpoint — at
   a cost low enough to leave on during soaks and benches. (The GC/RSS
   time-series sampler lives next to its caller, in Engine.)

   The design splits every instrument into one of two tiers:

   - [Det]: values derived from the deterministic execution (bytes, frames,
     rounds, live-session counts). These are byte-identical across the sim,
     poll, and multi-domain backends of the same scenario and are asserted
     so in tests.
   - [Sampled]: wall-clock and process-level measurements (durations, GC,
     RSS). Excluded from identity asserts by construction: the deterministic
     export path simply filters them out.

   Recording is allocation-free (fixed arrays, mutable ints); export is the
   cold path and allocates freely. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ---- log-bucketed histograms ---------------------------------------------- *)

module Hist = struct
  let slots = 64

  type t = {
    counts : int array;  (* length [slots], fixed at creation *)
    mutable h_count : int;
    mutable h_sum : int;
    mutable h_min : int;
    mutable h_max : int;
  }

  let create () =
    { counts = Array.make slots 0; h_count = 0; h_sum = 0; h_min = 0; h_max = 0 }

  (* Bucket i >= 1 holds the values with exactly i significant bits,
     [2^(i-1), 2^i); bucket 0 holds everything <= 0. On 63-bit ints the
     highest inhabited bucket is 62 ([2^61, max_int]); slot 63 exists for
     wider-int platforms. *)
  let bucket_of_value v =
    if v <= 0 then 0
    else begin
      let bits = ref 0 and x = ref v in
      while !x <> 0 do
        incr bits;
        x := !x lsr 1
      done;
      if !bits > slots - 1 then slots - 1 else !bits
    end

  let bucket_lo i =
    if i <= 0 then min_int
    else if i - 1 >= Sys.int_size - 1 then max_int
    else 1 lsl (i - 1)

  let bucket_hi i =
    if i <= 0 then 0
    else if i >= Sys.int_size - 1 then max_int
    else (1 lsl i) - 1

  let record h v =
    let i = bucket_of_value v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_sum <- h.h_sum + v;
    if h.h_count = 0 then begin
      h.h_min <- v;
      h.h_max <- v
    end
    else begin
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v
    end;
    h.h_count <- h.h_count + 1

  let count h = h.h_count
  let sum h = h.h_sum
  let min_value h = if h.h_count = 0 then 0 else h.h_min
  let max_value h = if h.h_count = 0 then 0 else h.h_max

  let mean h =
    if h.h_count = 0 then 0.0
    else float_of_int h.h_sum /. float_of_int h.h_count

  let counts h = Array.copy h.counts

  (* The bucket holding the q-quantile by the 1-based ceil(q*n) rank over the
     sorted recordings; the true quantile value lies inside the returned
     bounds, which are additionally clamped to the observed [min, max]. *)
  let quantile_bounds h q =
    if h.h_count = 0 then (0, 0)
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      let rank =
        let r = int_of_float (ceil (q *. float_of_int h.h_count)) in
        if r < 1 then 1 else r
      in
      let acc = ref 0 and i = ref 0 and found = ref (-1) in
      while !found < 0 && !i < slots do
        acc := !acc + h.counts.(!i);
        if !acc >= rank then found := !i;
        incr i
      done;
      let b = if !found < 0 then slots - 1 else !found in
      let lo = if bucket_lo b < h.h_min then h.h_min else bucket_lo b in
      let hi = if bucket_hi b > h.h_max then h.h_max else bucket_hi b in
      (lo, hi)
    end

  let quantile h q = snd (quantile_bounds h q)

  let merge ~into src =
    for i = 0 to slots - 1 do
      into.counts.(i) <- into.counts.(i) + src.counts.(i)
    done;
    if src.h_count > 0 then begin
      if into.h_count = 0 then begin
        into.h_min <- src.h_min;
        into.h_max <- src.h_max
      end
      else begin
        if src.h_min < into.h_min then into.h_min <- src.h_min;
        if src.h_max > into.h_max then into.h_max <- src.h_max
      end;
      into.h_count <- into.h_count + src.h_count;
      into.h_sum <- into.h_sum + src.h_sum
    end
end

(* ---- the instrument registry ---------------------------------------------- *)

type tier = Det | Sampled

let tier_name = function Det -> "det" | Sampled -> "sampled"

type counter = { mutable cn_value : int }
type gauge = { mutable g_value : int }
type instr = C of counter | G of gauge | H of Hist.t
type t = { instrs : (string, tier * instr) Hashtbl.t }

let create () = { instrs = Hashtbl.create 32 }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "hist"

let get t ~tier name make describe =
  match Hashtbl.find_opt t.instrs name with
  | Some (tr, instr) ->
      if tr <> tier then
        invalid_arg
          (Printf.sprintf "Obs: instrument %S re-requested with tier %s (is %s)"
             name (tier_name tier) (tier_name tr));
      describe instr
  | None ->
      let instr = make () in
      Hashtbl.add t.instrs name (tier, instr);
      describe instr

let wrong_kind name instr want =
  invalid_arg
    (Printf.sprintf "Obs: instrument %S is a %s, not a %s" name
       (kind_name instr) want)

let counter t ~tier name =
  get t ~tier name
    (fun () -> C { cn_value = 0 })
    (function C c -> c | other -> wrong_kind name other "counter")

let gauge t ~tier name =
  get t ~tier name
    (fun () -> G { g_value = 0 })
    (function G g -> g | other -> wrong_kind name other "gauge")

let hist t ~tier name =
  get t ~tier name
    (fun () -> H (Hist.create ()))
    (function H h -> h | other -> wrong_kind name other "hist")

let incr c by = c.cn_value <- c.cn_value + by
let counter_value c = c.cn_value
let set_gauge g v = g.g_value <- v
let max_gauge g v = if v > g.g_value then g.g_value <- v
let gauge_value g = g.g_value

let sorted_instrs ?tier t =
  Hashtbl.fold
    (fun name (tr, instr) acc ->
      match tier with
      | Some want when tr <> want -> acc
      | _ -> (name, tr, instr) :: acc)
    t.instrs []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let quantile_points = [ (50, 0.50); (90, 0.90); (99, 0.99) ]

let to_jsonl ?tier t =
  let buf = Buffer.create 1024 in
  let order = function C _ -> 0 | G _ -> 1 | H _ -> 2 in
  let instrs =
    sorted_instrs ?tier t
    |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare (order a) (order b))
  in
  List.iter
    (fun (name, tr, instr) ->
      (match instr with
      | C c ->
          Printf.bprintf buf {|{"kind":"counter","tier":"%s","name":"%s","value":%d}|}
            (tier_name tr) (escape name) c.cn_value
      | G g ->
          Printf.bprintf buf {|{"kind":"gauge","tier":"%s","name":"%s","value":%d}|}
            (tier_name tr) (escape name) g.g_value
      | H h ->
          Printf.bprintf buf
            {|{"kind":"hist","tier":"%s","name":"%s","count":%d,"sum":%d,"min":%d,"max":%d|}
            (tier_name tr) (escape name) (Hist.count h) (Hist.sum h)
            (Hist.min_value h) (Hist.max_value h);
          List.iter
            (fun (pct, q) -> Printf.bprintf buf {|,"p%d":%d|} pct (Hist.quantile h q))
            quantile_points;
          Buffer.add_string buf {|,"buckets":[|};
          let first = ref true in
          Array.iteri
            (fun i c ->
              if c > 0 then begin
                if not !first then Buffer.add_char buf ',';
                first := false;
                Printf.bprintf buf "[%d,%d]" i c
              end)
            h.Hist.counts;
          Buffer.add_string buf "]}");
      Buffer.add_char buf '\n')
    instrs;
  Buffer.contents buf

let pp_text fmt t =
  let instrs = sorted_instrs t in
  let pick want =
    List.filter (fun (_, _, i) -> kind_name i = want) instrs
  in
  Format.fprintf fmt "obs stats@.";
  let counters = pick "counter" and gauges = pick "gauge" and hists = pick "hist" in
  if counters <> [] then begin
    Format.fprintf fmt "counters:@.";
    List.iter
      (fun (name, tr, i) ->
        match i with
        | C c -> Format.fprintf fmt "  %-32s %12d  [%s]@." name c.cn_value (tier_name tr)
        | _ -> ())
      counters
  end;
  if gauges <> [] then begin
    Format.fprintf fmt "gauges:@.";
    List.iter
      (fun (name, tr, i) ->
        match i with
        | G g -> Format.fprintf fmt "  %-32s %12d  [%s]@." name g.g_value (tier_name tr)
        | _ -> ())
      gauges
  end;
  if hists <> [] then begin
    Format.fprintf fmt "histograms:@.";
    List.iter
      (fun (name, tr, i) ->
        match i with
        | H h ->
            Format.fprintf fmt
              "  %-32s n=%d min=%d p50=%d p90=%d p99=%d max=%d mean=%.1f  [%s]@."
              name (Hist.count h) (Hist.min_value h) (Hist.quantile h 0.50)
              (Hist.quantile h 0.90) (Hist.quantile h 0.99) (Hist.max_value h)
              (Hist.mean h) (tier_name tr)
        | _ -> ())
      hists
  end

let render_text t = Format.asprintf "%a" pp_text t

(* ---- Chrome trace_event (catapult) export --------------------------------- *)

module Trace = struct
  (* One engine round maps to [round_us] virtual microseconds, so the
     timeline is a pure function of the deterministic execution: rendering
     the same telemetry from any backend yields byte-identical JSON. Spans
     become "X" (complete) events on a pid=session / tid=party track; the
     engine's round timeline becomes counter ("C") events plus one global
     instant per round on a synthetic engine track. *)
  let chrome_trace ?(round_us = 1000) tel =
    let spans = ref [] in
    Telemetry.iter_span_views tel (fun v -> spans := v :: !spans);
    let spans = List.rev !spans in
    let rounds = ref [] in
    Telemetry.iter_round_views tel (fun r -> rounds := r :: !rounds);
    let rounds = List.rev !rounds in
    let engine_pid =
      1 + List.fold_left (fun acc v -> max acc v.Telemetry.v_session) (-1) spans
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf {|{"traceEvents":[|};
    let first = ref true in
    let event fmt =
      Printf.ksprintf
        (fun s ->
          if not !first then Buffer.add_string buf ",\n";
          first := false;
          Buffer.add_string buf s)
        fmt
    in
    (* Track naming metadata: one process per session, one thread per
       party, plus the synthetic engine track. *)
    let last_session = ref (-1) and last_pair = ref (-1, -1) in
    List.iter
      (fun v ->
        let s = v.Telemetry.v_session and p = v.Telemetry.v_party in
        if s <> !last_session then begin
          last_session := s;
          event
            {|{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"session %d"}}|}
            s s
        end;
        if (s, p) <> !last_pair then begin
          last_pair := (s, p);
          event
            {|{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":"party %d"}}|}
            s p p
        end)
      spans;
    if rounds <> [] then
      event
        {|{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"engine"}}|}
        engine_pid;
    (* Span tree as complete events. Duration is inclusive of the exit
       round ([enter, exit] in rounds), which keeps children inside their
       parent and zero-round spans visible. *)
    List.iter
      (fun v ->
        event
          {|{"ph":"X","name":"%s","cat":"span","pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":{"path":"%s","bits":%d,"msgs":%d}}|}
          (escape v.Telemetry.v_label) v.Telemetry.v_session
          v.Telemetry.v_party
          (v.Telemetry.v_enter * round_us)
          ((v.Telemetry.v_exit - v.Telemetry.v_enter + 1) * round_us)
          (escape v.Telemetry.v_path) v.Telemetry.v_bits v.Telemetry.v_msgs)
      spans;
    (* Engine round barriers and per-round counters. *)
    List.iter
      (fun r ->
        let ts = r.Telemetry.r_round * round_us in
        event
          {|{"ph":"i","s":"g","name":"round %d","pid":%d,"tid":0,"ts":%d}|}
          r.Telemetry.r_round engine_pid ts;
        event
          {|{"ph":"C","name":"honest traffic","pid":%d,"ts":%d,"args":{"bits":%d,"msgs":%d}}|}
          engine_pid ts r.Telemetry.r_bits r.Telemetry.r_msgs;
        if r.Telemetry.r_live >= 0 then
          event
            {|{"ph":"C","name":"live sessions","pid":%d,"ts":%d,"args":{"live":%d}}|}
            engine_pid ts r.Telemetry.r_live)
      rounds;
    Buffer.add_string buf {|],"displayTimeUnit":"ms"}|};
    Buffer.add_char buf '\n';
    Buffer.contents buf
end

(* ---- live plain-text stats endpoint --------------------------------------- *)

module Endpoint = struct
  type t = {
    e_fd : Unix.file_descr;
    e_path : string;
    e_render : unit -> string;
    mutable e_closed : bool;
  }

  let create ~path ~render =
    (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try
       Unix.bind fd (Unix.ADDR_UNIX path);
       Unix.listen fd 8;
       Unix.set_nonblock fd
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { e_fd = fd; e_path = path; e_render = render; e_closed = false }

  let fd t = t.e_fd
  let path t = t.e_path

  let service t =
    if not t.e_closed then begin
      let continue = ref true in
      while !continue do
        match Unix.accept t.e_fd with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            continue := false
        | exception Unix.Unix_error _ -> continue := false
        | client, _ ->
            (* The dump is one-shot: render, write, close. A stuck client
               cannot hold the poll loop hostage — writes time out. *)
            (try
               Unix.setsockopt_float client Unix.SO_SNDTIMEO 0.5;
               let body = t.e_render () in
               let len = String.length body in
               let off = ref 0 and sending = ref true in
               while !sending && !off < len do
                 match Unix.write_substring client body !off (len - !off) with
                 | 0 -> sending := false
                 | k -> off := !off + k
                 | exception Unix.Unix_error _ -> sending := false
               done
             with _ -> ());
            (try Unix.close client with Unix.Unix_error _ -> ())
      done
    end

  let close t =
    if not t.e_closed then begin
      t.e_closed <- true;
      (try Unix.close t.e_fd with Unix.Unix_error _ -> ());
      try Unix.unlink t.e_path with Unix.Unix_error _ | Sys_error _ -> ()
    end

  let fetch ~path =
    match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | fd -> (
        let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
        Fun.protect ~finally (fun () ->
            match Unix.connect fd (Unix.ADDR_UNIX path) with
            | exception Unix.Unix_error (e, _, _) ->
                Error (Unix.error_message e)
            | () ->
                let buf = Buffer.create 1024 in
                let chunk = Bytes.create 4096 in
                let rec read_all () =
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 -> Ok (Buffer.contents buf)
                  | k ->
                      Buffer.add_subbytes buf chunk 0 k;
                      read_all ()
                  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                      Ok (Buffer.contents buf)
                  | exception Unix.Unix_error (e, _, _) ->
                      Error (Unix.error_message e)
                in
                read_all ()))
end

(* ---- export schema checks ------------------------------------------------- *)

module Check = struct
  (* Minimal recursive-descent JSON reader, enough to schema-check our own
     exports (mirrors bench/validate_bench.ml, which cannot be a library
     dependency from here). *)
  type json =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of json list
    | Obj of (string * json) list

  exception Bad of string

  let parse (s : string) : (json, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = pos := !pos + 1 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
            | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do advance () done;
                Buffer.add_char buf '?';
                go ()
            | Some c -> advance (); Buffer.add_char buf c; go ()
            | None -> fail "bad escape")
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let number () =
      let start = !pos in
      let num_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while (match peek () with Some c when num_char c -> true | _ -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Obj [] end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let key = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              fields := (key, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members ()
              | Some '}' -> advance ()
              | _ -> fail "expected , or }"
            in
            members ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); Arr [] end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected , or ]"
            in
            elements ();
            Arr (List.rev !items)
          end
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
      | None -> fail "unexpected end of input"
    in
    match
      let v = value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let field obj key =
    match obj with
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let require_int line obj key =
    match field obj key with
    | Some (Num f) when Float.is_integer f -> ()
    | _ -> raise (Bad (Printf.sprintf "%s: field %S missing or not an int" line key))

  let require_str line obj key =
    match field obj key with
    | Some (Str _) -> ()
    | _ -> raise (Bad (Printf.sprintf "%s: field %S missing or not a string" line key))

  let kind_of obj =
    match field obj "kind" with Some (Str k) -> k | _ -> raise (Bad "line without kind")

  let check_lines content per_line =
    let count = ref 0 in
    try
      String.split_on_char '\n' content
      |> List.iteri (fun i line ->
             if String.trim line <> "" then begin
               let where = Printf.sprintf "line %d" (i + 1) in
               match parse line with
               | Error msg -> raise (Bad (where ^ ": " ^ msg))
               | Ok obj ->
                   per_line where obj;
                   count := !count + 1
             end);
      Ok !count
    with Bad msg -> Error msg

  let registry_jsonl content =
    check_lines content (fun where obj ->
        match kind_of obj with
        | "counter" | "gauge" ->
            require_str where obj "tier";
            require_str where obj "name";
            require_int where obj "value"
        | "hist" ->
            require_str where obj "tier";
            require_str where obj "name";
            List.iter
              (require_int where obj)
              [ "count"; "sum"; "min"; "max"; "p50"; "p90"; "p99" ];
            (match field obj "buckets" with
            | Some (Arr items) ->
                List.iter
                  (function
                    | Arr [ Num i; Num c ]
                      when Float.is_integer i && Float.is_integer c
                           && i >= 0.0
                           && i < float_of_int Hist.slots
                           && c > 0.0 ->
                        ()
                    | _ -> raise (Bad (where ^ ": malformed bucket entry")))
                  items
            | _ -> raise (Bad (where ^ ": hist without buckets array")))
        | k -> raise (Bad (Printf.sprintf "%s: unexpected kind %S" where k)))

  let sampler_jsonl content =
    let header = ref false in
    let r =
      check_lines content (fun where obj ->
          match kind_of obj with
          | "sampler" ->
              header := true;
              List.iter (require_int where obj) [ "capacity"; "recorded"; "dropped" ]
          | "sample" ->
              List.iter
                (require_int where obj)
                [
                  "idx"; "round"; "live"; "minor_collections"; "major_collections";
                  "heap_words"; "compactions"; "rss_bytes";
                ]
          | k -> raise (Bad (Printf.sprintf "%s: unexpected kind %S" where k)))
    in
    match r with
    | Ok n when not !header -> Error (Printf.sprintf "no sampler header in %d lines" n)
    | r -> r

  let chrome_trace content =
    match parse content with
    | Error msg -> Error msg
    | Ok root -> (
        match field root "traceEvents" with
        | Some (Arr events) -> (
            try
              List.iter
                (fun ev ->
                  (match field ev "ph" with
                  | Some (Str ("X" | "M" | "C" | "i")) -> ()
                  | _ -> raise (Bad "event with missing or unexpected ph"));
                  require_str "event" ev "name";
                  require_int "event" ev "pid";
                  match field ev "ph" with
                  | Some (Str "X") ->
                      require_int "event" ev "tid";
                      require_int "event" ev "ts";
                      require_int "event" ev "dur";
                      (match (field ev "ts", field ev "dur") with
                      | Some (Num ts), Some (Num d) when ts >= 0.0 && d >= 1.0 -> ()
                      | _ -> raise (Bad "X event with negative ts or empty dur"))
                  | Some (Str ("C" | "i")) -> require_int "event" ev "ts"
                  | _ -> ())
                events;
              Ok (List.length events)
            with Bad msg -> Error msg)
        | _ -> Error "no traceEvents array")
end
