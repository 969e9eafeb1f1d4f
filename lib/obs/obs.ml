(* The observability plane: one recorder per run.

   A recorder answers both "where did the bits go" (byte-audited span trees,
   the per-round timeline, convergence probes) and "how is the run behaving"
   (latency and size histograms, counters, gauges), and exports both as one
   canonical JSONL and as a Chrome trace — at a cost low enough to leave on
   during soaks and benches.

   Every instrument carries a tier:

   - [Det]: values derived from the deterministic execution (bytes, frames,
     rounds, live-session counts). The span plane (meta, rounds, spans,
     probes) is deterministic by construction and belongs here too. These
     are byte-identical across the sim and poll backends of the same
     scenario and are asserted so in tests.
   - [Sampled]: wall-clock and process-level measurements (durations, GC,
     RSS). Excluded from identity asserts by construction: the deterministic
     export path simply filters them out. The time series of samples
     ([sample]: named int readings at an engine round) is Sampled too.

   A recorder is single-threaded. Each session records through a handle
   ([session]) that holds its parties' buckets and writes straight into the
   recorder; the export walks the buckets in sorted key order and the spans
   in pre-order, and timeline cells and label totals are sums, so it is
   byte-identical whatever order the sessions recorded in. Recording an
   instrument allocates nothing; the span plane allocates one record per
   span, probe, bucket and round. Export is the cold path and allocates
   freely. *)

(* ---- JSON: the one escape and the one strict reader ----------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

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

  exception Bad of string

  let hex_digit = function
    | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
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
        | Some c when Char.code c < 0x20 -> fail "raw control character in string"
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some (('"' | '\\' | '/') as c) -> Buffer.add_char buf c
            | Some 'n' -> Buffer.add_char buf '\n'
            | Some 't' -> Buffer.add_char buf '\t'
            | Some 'r' -> Buffer.add_char buf '\r'
            | Some 'b' -> Buffer.add_char buf '\b'
            | Some 'f' -> Buffer.add_char buf '\012'
            | Some 'u' ->
                let cp = ref 0 in
                for _ = 1 to 4 do
                  advance ();
                  match Option.bind (peek ()) hex_digit with
                  | Some d -> cp := (!cp * 16) + d
                  | None -> fail "\\u escape needs four hex digits"
                done;
                Buffer.add_utf_8_uchar buf
                  (if Uchar.is_valid !cp then Uchar.of_int !cp else Uchar.rep)
            | _ -> fail "bad escape");
            advance ();
            go ()
        | Some c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    (* The RFC 8259 number grammar: optional minus, then 0 or a digit run
       without a leading zero, then an optional fraction and exponent. *)
    let number () =
      let start = !pos in
      let digits () =
        let d0 = !pos in
        while (match peek () with Some '0' .. '9' -> true | _ -> false) do
          advance ()
        done;
        if !pos = d0 then fail "expected a digit"
      in
      if peek () = Some '-' then advance ();
      (match peek () with
      | Some '0' -> advance ()
      | _ -> digits ());
      if peek () = Some '.' then begin
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          digits ()
      | _ -> ());
      Num (float_of_string (String.sub s start (!pos - start)))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected , or }"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ]"
            in
            elements []
          end
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | Some _ -> fail "unexpected character"
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
    match obj with Obj fields -> List.assoc_opt key fields | _ -> None
end

let escape = Json.escape

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
      (* The bit length of v, by binary search over shift widths: six
         branches instead of one loop turn per bit (this runs once per
         frame). *)
      let bits = ref 1 and x = ref v in
      if !x lsr 32 <> 0 then begin bits := !bits + 32; x := !x lsr 32 end;
      if !x lsr 16 <> 0 then begin bits := !bits + 16; x := !x lsr 16 end;
      if !x lsr 8 <> 0 then begin bits := !bits + 8; x := !x lsr 8 end;
      if !x lsr 4 <> 0 then begin bits := !bits + 4; x := !x lsr 4 end;
      if !x lsr 2 <> 0 then begin bits := !bits + 2; x := !x lsr 2 end;
      if !x lsr 1 <> 0 then bits := !bits + 1;
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

(* ---- the recorder --------------------------------------------------------- *)

type tier = Det | Sampled

let tier_name = function Det -> "det" | Sampled -> "sampled"

type counter = { mutable cn_value : int }
type gauge = { mutable g_value : int }
type instr = C of counter | G of gauge | H of Hist.t

let root_label = "(run)"
let unlabeled = "(unlabeled)"

type span = {
  sp_label : string;
  sp_enter : int;
  mutable sp_exit : int;  (* -1 while open *)
  mutable sp_bits : int;
  mutable sp_msgs : int;
  mutable sp_children_rev : span list;
}

let mk_span ~label ~enter =
  {
    sp_label = label;
    sp_enter = enter;
    sp_exit = -1;
    sp_bits = 0;
    sp_msgs = 0;
    sp_children_rev = [];
  }

(* A probe keeps the party's value itself: bitstrings are immutable, so
   holding the pointer is free and the hex render waits for export. *)
type probe = {
  pr_key : string;
  pr_iter : int;  (* occurrence index of pr_key within this bucket *)
  pr_round : int;
  pr_byzantine : bool;
  pr_value : Bitstring.t;
}

type message = {
  session : int;
  round : int;
  src : int;
  dst : int;
  bytes : int;
  byzantine : bool;
  label : string;
}

type sample = { sm_round : int; sm_live : int; sm_fields : (string * int) list }

(* Bits by label: a chain of mutable cells, one per label, with no list
   spine (every bucket keeps one cell per label it closed). *)
type labels = Nil | Label of { label : string; mutable bits : int; next : labels }

(* One party of one session: its stack of open spans, the counts of what it
   sent and its closed spans' label totals; the probes and (through the
   root's children) the span tree are filled only when a recorder keeps
   them. *)
type bucket = {
  b_session : int;
  b_party : int;
  b_root : span;
  mutable b_stack : span list;  (* open spans, innermost first; root last *)
  mutable b_labels : labels;
      (* bits of the closed spans that carried a message *)
  mutable b_probes_rev : probe list;
  mutable b_probe_counts : (string * int) list;
  mutable b_last_round : int;
  mutable b_bits : int;
  mutable b_msgs : int;
  mutable b_byz_bits : int;
  mutable b_byz_msgs : int;
}

type cell = {
  mutable c_bits : int;
  mutable c_msgs : int;
  mutable c_byz_bits : int;
  mutable c_byz_msgs : int;
  mutable c_live : int;  (* -1 when never recorded *)
}

type t = {
  messages : bool;
  instrs : (string, tier * instr) Hashtbl.t;
  buckets : (int * int, bucket) Hashtbl.t;
  timeline : (int, cell) Hashtbl.t;
  mutable meta_rev : (string * string) list;
  mutable messages_rev : message list;
  mutable samples_rev : sample list;
  (* The last round cell, for the per-message hot path: every live session
     of an engine round charges the same one. *)
  mutable cached_round : int;
  mutable cached_cell : cell option;
}

let mk_bucket ~session ~party =
  let root = mk_span ~label:root_label ~enter:0 in
  {
    b_session = session;
    b_party = party;
    b_root = root;
    b_stack = [ root ];
    b_labels = Nil;
    b_probes_rev = [];
    b_probe_counts = [];
    b_last_round = 0;
    b_bits = 0;
    b_msgs = 0;
    b_byz_bits = 0;
    b_byz_msgs = 0;
  }

let create ?(messages = false) () =
  {
    messages;
    instrs = Hashtbl.create 64;
    buckets = Hashtbl.create 64;
    timeline = Hashtbl.create 256;
    meta_rev = [];
    messages_rev = [];
    samples_rev = [];
    cached_round = -1;
    cached_cell = None;
  }

(* One session's parties, indexed by party, recording into [s_obs] when a
   recorder is attached. *)
type session = { s_obs : t option; s_buckets : bucket array }

let session obs ~session ~n =
  let buckets = Array.init n (fun party -> mk_bucket ~session ~party) in
  (match obs with
  | Some o ->
      if n > 0 && Hashtbl.mem o.buckets (session, 0) then
        invalid_arg (Printf.sprintf "Obs.session: session %d already recorded" session);
      Array.iter (fun b -> Hashtbl.add o.buckets (session, b.b_party) b) buckets
  | None -> ());
  { s_obs = obs; s_buckets = buckets }

(* ---- instruments ---------------------------------------------------------- *)

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

let sample t ~round ~live fields =
  t.samples_rev <-
    { sm_round = round; sm_live = live; sm_fields = fields } :: t.samples_rev

(* ---- spans, timeline, probes ---------------------------------------------- *)

let set_meta t key value =
  if List.mem_assoc key t.meta_rev then
    t.meta_rev <-
      List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) t.meta_rev
  else t.meta_rev <- (key, value) :: t.meta_rev

let touch b round = if round > b.b_last_round then b.b_last_round <- round

(* Add [bits] to [label]'s cell; [false] when [labels] has none. *)
let rec add_label labels label bits =
  match labels with
  | Nil -> false
  | Label l ->
      if String.equal l.label label then begin
        l.bits <- l.bits + bits;
        true
      end
      else add_label l.next label bits

let add_bits labels label bits =
  if add_label labels label bits then labels else Label { label; bits; next = labels }

(* A span leaves the stack: its own bits join its label's total. A span that
   carried no message leaves no entry, so a label is listed exactly when
   some message was sent under it. *)
let close b sp =
  if sp.sp_msgs > 0 then b.b_labels <- add_bits b.b_labels sp.sp_label sp.sp_bits

let push h ~party ~round ~label =
  let b = h.s_buckets.(party) in
  touch b round;
  let sp = mk_span ~label ~enter:round in
  (if Option.is_some h.s_obs then
     match b.b_stack with
     | parent :: _ -> parent.sp_children_rev <- sp :: parent.sp_children_rev
     | [] -> assert false);
  b.b_stack <- sp :: b.b_stack

let pop h ~party ~round =
  let b = h.s_buckets.(party) in
  touch b round;
  match b.b_stack with
  | sp :: (_ :: _ as rest) ->
      sp.sp_exit <- round;
      b.b_stack <- rest;
      close b sp
  | _ -> () (* only the root is open: mirror the runtimes' lenient Pop *)

let probe h ~party ~round ~byzantine ~key ~value =
  if Option.is_some h.s_obs then begin
    let b = h.s_buckets.(party) in
    touch b round;
    let iter = Option.value ~default:0 (List.assoc_opt key b.b_probe_counts) in
    b.b_probe_counts <- (key, iter + 1) :: List.remove_assoc key b.b_probe_counts;
    b.b_probes_rev <-
      { pr_key = key; pr_iter = iter; pr_round = round; pr_byzantine = byzantine;
        pr_value = value }
      :: b.b_probes_rev
  end

let cell t round =
  match t.cached_cell with
  | Some c when t.cached_round = round -> c
  | _ ->
      let c =
        match Hashtbl.find_opt t.timeline round with
        | Some c -> c
        | None ->
            let c =
              { c_bits = 0; c_msgs = 0; c_byz_bits = 0; c_byz_msgs = 0; c_live = -1 }
            in
            Hashtbl.add t.timeline round c;
            c
      in
      t.cached_round <- round;
      t.cached_cell <- Some c;
      c

(* Charge [msgs] messages of [bits] in total, all sent by [party] in one
   round: the sender's innermost open span and counts, and the recorder's
   timeline cell when one is attached. Returns the sender's bucket. *)
let charge h ~party ~round ~timeline_round ~byzantine ~msgs ~bits =
  let b = h.s_buckets.(party) in
  if byzantine then begin
    b.b_byz_bits <- b.b_byz_bits + bits;
    b.b_byz_msgs <- b.b_byz_msgs + msgs
  end
  else begin
    touch b round;
    b.b_bits <- b.b_bits + bits;
    b.b_msgs <- b.b_msgs + msgs;
    match b.b_stack with
    | sp :: _ ->
        sp.sp_bits <- sp.sp_bits + bits;
        sp.sp_msgs <- sp.sp_msgs + msgs
    | [] -> ()
  end;
  (match h.s_obs with
  | Some t ->
      let c = cell t timeline_round in
      if byzantine then begin
        c.c_byz_bits <- c.c_byz_bits + bits;
        c.c_byz_msgs <- c.c_byz_msgs + msgs
      end
      else begin
        c.c_bits <- c.c_bits + bits;
        c.c_msgs <- c.c_msgs + msgs
      end
  | None -> ());
  b

(* The one charge per message, plus its event when the recorder keeps
   those. *)
let message h ~party ~dst ~round ~timeline_round ~bytes ~byzantine =
  let b = charge h ~party ~round ~timeline_round ~byzantine ~msgs:1 ~bits:(8 * bytes) in
  match h.s_obs with
  | Some t when t.messages ->
      t.messages_rev <-
        {
          session = b.b_session;
          round;
          src = party;
          dst;
          bytes;
          byzantine;
          label = (match b.b_stack with sp :: _ :: _ -> sp.sp_label | _ -> "");
        }
        :: t.messages_rev
  | _ -> ()

(* A sender's whole round in one charge. The charge is additive, so the
   totals equal one [message] per entry; only a recorder that keeps message
   events takes them one by one, walking the sender's column. *)
let sent h ~party ~round ~timeline_round ~byzantine ~msgs ~bytes inbound =
  match h.s_obs with
  | Some t when t.messages ->
      for dst = 0 to Array.length inbound - 1 do
        match inbound.(dst).(party) with
        | Some m when dst <> party ->
            message h ~party ~dst ~round ~timeline_round ~bytes:(String.length m)
              ~byzantine
        | Some _ | None -> ()
      done
  | _ ->
      if msgs > 0 then
        ignore (charge h ~party ~round ~timeline_round ~byzantine ~msgs ~bits:(8 * bytes))

let live_sessions t ~round ~live = (cell t round).c_live <- live

let finish h ~party ~round =
  let b = h.s_buckets.(party) in
  touch b round;
  (* Close anything a truncated run left open; the root stays open and is
     given its exit round at export time (b_last_round). *)
  List.iter
    (fun sp ->
      if sp != b.b_root then begin
        sp.sp_exit <- round;
        close b sp
      end)
    b.b_stack;
  b.b_stack <- [ b.b_root ]

(* ---- queries -------------------------------------------------------------- *)

let sorted_buckets t =
  Hashtbl.fold (fun _ b acc -> b :: acc) t.buckets []
  |> List.sort (fun a b -> compare (a.b_session, a.b_party) (b.b_session, b.b_party))

let sorted_rounds t =
  Hashtbl.fold (fun r c acc -> (r, c) :: acc) t.timeline []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Every span in export order — buckets by (session, party), spans pre-order
   — with its depth, slash-joined label path and exit round (open spans
   report the bucket's last recorded round). *)
let iter_span_paths t f =
  List.iter
    (fun b ->
      let rec walk path depth sp =
        let path = if path = "" then sp.sp_label else path ^ "/" ^ sp.sp_label in
        let exit = if sp.sp_exit < 0 then b.b_last_round else sp.sp_exit in
        f b ~depth ~path ~exit sp;
        List.iter (walk path (depth + 1)) (List.rev sp.sp_children_rev)
      in
      walk "" 0 b.b_root)
    (sorted_buckets t)

let sessions t =
  List.sort_uniq compare (Hashtbl.fold (fun (s, _) _ acc -> s :: acc) t.buckets [])

type counts = { honest_bits : int; honest_msgs : int; byz_bits : int; byz_msgs : int }

let fold_counts iter =
  let hb = ref 0 and hm = ref 0 and bb = ref 0 and bm = ref 0 in
  iter (fun b ->
      hb := !hb + b.b_bits;
      hm := !hm + b.b_msgs;
      bb := !bb + b.b_byz_bits;
      bm := !bm + b.b_byz_msgs);
  { honest_bits = !hb; honest_msgs = !hm; byz_bits = !bb; byz_msgs = !bm }

let iter_buckets t f = Hashtbl.iter (fun _ b -> f b) t.buckets
let counts t = fold_counts (iter_buckets t)
let session_counts h = fold_counts (fun f -> Array.iter f h.s_buckets)

let honest_bits t ~session =
  Hashtbl.fold
    (fun _ b acc -> if b.b_session = session then acc + b.b_bits else acc)
    t.buckets 0

let honest_bits_total t = (counts t).honest_bits

(* Every bucket's closed label totals plus its open spans that carried a
   message. Bits descending, then label ascending: ties (equal-cost
   components are common in lock-step protocols) must not depend on
   recording order. *)
let fold_label_bits iter =
  let sum = ref Nil in
  iter (fun b ->
      let rec closed = function
        | Nil -> ()
        | Label l ->
            sum := add_bits !sum l.label l.bits;
            closed l.next
      in
      closed b.b_labels;
      List.iter
        (fun sp ->
          if sp.sp_msgs > 0 then
            sum := add_bits !sum (if sp == b.b_root then unlabeled else sp.sp_label) sp.sp_bits)
        b.b_stack);
  let rec to_list acc = function
    | Nil -> acc
    | Label l -> to_list ((l.label, l.bits) :: acc) l.next
  in
  to_list [] !sum
  |> List.sort (fun (la, a) (lb, b) -> if a <> b then compare b a else compare la lb)

let label_bits t = fold_label_bits (iter_buckets t)
let session_label_bits h = fold_label_bits (fun f -> Array.iter f h.s_buckets)

let probe_keys t ~session =
  let keys = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ b ->
      if b.b_session = session then
        List.iter (fun p -> Hashtbl.replace keys p.pr_key ()) b.b_probes_rev)
    t.buckets;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys [])

let convergence t ~session ~key =
  let hulls = Hashtbl.create 32 in
  (* iter index -> (lo, hi) over honest parties' values *)
  let max_iter = ref (-1) in
  Hashtbl.iter
    (fun _ b ->
      if b.b_session = session then
        List.iter
          (fun p ->
            if p.pr_key = key && not p.pr_byzantine then begin
              let v = Bigint.of_bitstring p.pr_value in
              if p.pr_iter > !max_iter then max_iter := p.pr_iter;
              Hashtbl.replace hulls p.pr_iter
                (match Hashtbl.find_opt hulls p.pr_iter with
                | None -> (v, v)
                | Some (lo, hi) -> (Bigint.min lo v, Bigint.max hi v))
            end)
          b.b_probes_rev)
    t.buckets;
  List.filter_map (fun i -> Hashtbl.find_opt hulls i) (List.init (!max_iter + 1) Fun.id)

(* ---- JSONL export --------------------------------------------------------- *)

(* The span plane: meta (insertion order), rounds (ascending), spans (export
   order), probes (same bucket order, emission order), one total line. *)
let span_plane_jsonl buf t =
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  List.iter
    (fun (k, v) -> line {|{"kind":"meta","key":"%s","value":"%s"}|} (escape k) (escape v))
    (List.rev t.meta_rev);
  List.iter
    (fun (r, c) ->
      let live = if c.c_live >= 0 then Printf.sprintf {|,"live":%d|} c.c_live else "" in
      line {|{"kind":"round","round":%d,"bits":%d,"msgs":%d,"byz_bits":%d,"byz_msgs":%d%s}|}
        r c.c_bits c.c_msgs c.c_byz_bits c.c_byz_msgs live)
    (sorted_rounds t);
  let n_spans = ref 0 in
  iter_span_paths t (fun b ~depth ~path ~exit sp ->
      Stdlib.incr n_spans;
      line
        {|{"kind":"span","session":%d,"party":%d,"depth":%d,"path":"%s","label":"%s","enter":%d,"exit":%d,"bits":%d,"msgs":%d}|}
        b.b_session b.b_party depth (escape path) (escape sp.sp_label) sp.sp_enter exit
        sp.sp_bits sp.sp_msgs);
  let buckets = sorted_buckets t in
  let n_probes = ref 0 in
  List.iter
    (fun b ->
      List.iter
        (fun p ->
          Stdlib.incr n_probes;
          line
            {|{"kind":"probe","session":%d,"party":%d,"round":%d,"byzantine":%b,"key":"%s","iter":%d,"value":"%s"}|}
            b.b_session b.b_party p.pr_round p.pr_byzantine (escape p.pr_key) p.pr_iter
            (Bigint.to_hex (Bigint.of_bitstring p.pr_value)))
        (List.rev b.b_probes_rev))
    buckets;
  line
    {|{"kind":"total","sessions":%d,"spans":%d,"probes":%d,"honest_bits":%d,"honest_msgs":%d}|}
    (List.length (sessions t)) !n_spans !n_probes
    (List.fold_left (fun acc b -> acc + b.b_bits) 0 buckets)
    (List.fold_left (fun acc b -> acc + b.b_msgs) 0 buckets)

let sorted_instrs ?tier t =
  Hashtbl.fold
    (fun name (tr, instr) acc ->
      match tier with
      | Some want when tr <> want -> acc
      | _ -> (name, tr, instr) :: acc)
    t.instrs []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let quantile_points = [ (50, 0.50); (90, 0.90); (99, 0.99) ]

let instruments_jsonl buf ?tier t =
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
    instrs

(* The time series, in recording order; [idx] numbers the samples. *)
let samples_jsonl buf t =
  List.iteri
    (fun idx s ->
      Printf.bprintf buf {|{"kind":"sample","idx":%d,"round":%d,"live":%d|} idx
        s.sm_round s.sm_live;
      List.iter (fun (k, v) -> Printf.bprintf buf {|,"%s":%d|} (escape k) v) s.sm_fields;
      Buffer.add_string buf "}\n")
    (List.rev t.samples_rev)

let to_jsonl ?tier t =
  let buf = Buffer.create 4096 in
  let span_plane_empty =
    Hashtbl.length t.buckets = 0 && Hashtbl.length t.timeline = 0 && t.meta_rev = []
  in
  if tier <> Some Sampled && not span_plane_empty then span_plane_jsonl buf t;
  instruments_jsonl buf ?tier t;
  if tier <> Some Det then samples_jsonl buf t;
  Buffer.contents buf

(* ---- the span report ------------------------------------------------------ *)

(* Aggregation of the per-bucket span trees by path: children keep first-seen
   order (buckets are visited in sorted order, so this is deterministic). *)
type agg = {
  mutable g_bits : int;
  mutable g_msgs : int;
  mutable g_min_enter : int;
  mutable g_max_exit : int;
  mutable g_children_rev : (string * agg) list;
}

let mk_agg () =
  { g_bits = 0; g_msgs = 0; g_min_enter = max_int; g_max_exit = 0; g_children_rev = [] }

(* Decimal rendering is quadratic in the bit length (2^19 bits took 29 s),
   so values past 256 bits print as a summary built in O(ℓ). *)
let show_value v =
  let bits = Bigint.bit_length v in
  if bits <= 256 then Bigint.to_string v
  else
    let hex = Bigint.to_hex v in
    let len = String.length hex and sign = if Bigint.sign v < 0 then 1 else 0 in
    let bytes = Bigint.to_bitstring_fixed ~bits:(8 * ((bits + 7) / 8)) v in
    Printf.sprintf "%s0x%s...%s (%d bits, sha256 %s)"
      (String.sub hex 0 sign) (String.sub hex sign 16) (String.sub hex (len - 16) 16)
      bits (Sha256.hex (Bitstring.to_bytes bytes))

let pp_report fmt t =
  let buckets = sorted_buckets t in
  let root_agg = mk_agg () in
  List.iter
    (fun b ->
      let rec merge agg sp =
        agg.g_bits <- agg.g_bits + sp.sp_bits;
        agg.g_msgs <- agg.g_msgs + sp.sp_msgs;
        if sp.sp_enter < agg.g_min_enter then agg.g_min_enter <- sp.sp_enter;
        let exit = if sp.sp_exit < 0 then b.b_last_round else sp.sp_exit in
        if exit > agg.g_max_exit then agg.g_max_exit <- exit;
        List.iter
          (fun child ->
            let child_agg =
              match List.assoc_opt child.sp_label agg.g_children_rev with
              | Some g -> g
              | None ->
                  let g = mk_agg () in
                  agg.g_children_rev <- (child.sp_label, g) :: agg.g_children_rev;
                  g
            in
            merge child_agg child)
          (List.rev sp.sp_children_rev)
      in
      merge root_agg b.b_root)
    buckets;
  (* Inclusive of children, for the tree display. *)
  let rec deep_bits g =
    g.g_bits + List.fold_left (fun acc (_, c) -> acc + deep_bits c) 0 g.g_children_rev
  in
  let total_bits = deep_bits root_agg in
  let share b =
    if total_bits = 0 then 0. else 100. *. float_of_int b /. float_of_int total_bits
  in
  Format.fprintf fmt "telemetry report@.";
  List.iter (fun (k, v) -> Format.fprintf fmt "  %-12s %s@." (k ^ ":") v) (List.rev t.meta_rev);
  Format.fprintf fmt "  sessions: %d   buckets: %d   honest bits: %d   msgs: %d@."
    (List.length (sessions t)) (List.length buckets) total_bits
    (List.fold_left (fun acc b -> acc + b.b_msgs) 0 buckets);
  (* Span tree, inclusive bits per node. *)
  Format.fprintf fmt "@.span tree (aggregated; bits include children):@.";
  let rec pp_agg indent label g =
    let incl = deep_bits g in
    Format.fprintf fmt "  %s%-*s %12d bits %6.1f%% %8d msgs  r%d..%d@." indent
      (max 1 (30 - String.length indent))
      label incl (share incl) g.g_msgs
      (if g.g_min_enter = max_int then 0 else g.g_min_enter)
      g.g_max_exit;
    List.iter (fun (l, c) -> pp_agg (indent ^ "  ") l c) (List.rev g.g_children_rev)
  in
  pp_agg "" root_label root_agg;
  (* Round heatmap, bucketed to at most 48 bins. *)
  let rounds = sorted_rounds t in
  (match (rounds, List.rev rounds) with
  | (lo, _) :: _, (hi, _) :: _ ->
      let bins = 48 in
      let width = max 1 ((hi - lo + bins) / bins) in
      let sums = Array.make bins 0 in
      let lives = Array.make bins (-1) in
      List.iter
        (fun (r, c) ->
          let i = min (bins - 1) ((r - lo) / width) in
          sums.(i) <- sums.(i) + c.c_bits;
          if c.c_live > lives.(i) then lives.(i) <- c.c_live)
        rounds;
      let peak = Array.fold_left max 1 sums in
      Format.fprintf fmt "@.round heatmap (honest bits per %d-round bin):@." width;
      Array.iteri
        (fun i s ->
          let r0 = lo + (i * width) in
          if r0 <= hi then begin
            let bar = String.make (s * 40 / peak) '#' in
            let live =
              if lives.(i) >= 0 then Printf.sprintf "  live %d" lives.(i) else ""
            in
            Format.fprintf fmt "  r%-6d %10d |%-40s|%s@." r0 s bar live
          end)
        sums
  | _ -> ());
  (* The ten costliest labels. *)
  let labels = label_bits t in
  if labels <> [] then begin
    Format.fprintf fmt "@.top labels (exclusive bits):@.";
    List.iteri
      (fun i (l, b) ->
        if i < 10 then
          Format.fprintf fmt "  %2d. %-28s %12d bits %6.1f%%@." (i + 1) l b (share b))
      labels
  end;
  (* Convergence curves. *)
  List.iter
    (fun session ->
      List.iter
        (fun key ->
          let curve = convergence t ~session ~key in
          if curve <> [] then begin
            let widths = List.map (fun (lo, hi) -> Bigint.sub hi lo) curve in
            let rec monotone = function
              | a :: (b :: _ as rest) -> Bigint.compare b a <= 0 && monotone rest
              | _ -> true
            in
            Format.fprintf fmt
              "@.probe %s (session %d): %d iterations, hull width %s -> %s%s@." key
              session (List.length widths)
              (show_value (List.hd widths))
              (show_value (List.nth widths (List.length widths - 1)))
              (if monotone widths then " (monotone non-increasing)" else "");
            List.iteri
              (fun i w ->
                if i < 16 then
                  Format.fprintf fmt "    iter %2d: width %s@." i (show_value w)
                else if i = 16 then Format.fprintf fmt "    ...@.")
              widths
          end)
        (probe_keys t ~session))
    (sessions t)

(* ---- message events -------------------------------------------------------- *)

let messages t =
  let key m = (m.session, m.round, m.src, m.dst) in
  List.sort (fun a b -> compare (key a) (key b)) t.messages_rev

let csv_header = "round,src,dst,bytes,byzantine,label,session"

let messages_csv t =
  let buf = Buffer.create (64 * (1 + List.length t.messages_rev)) in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun m ->
      Printf.bprintf buf "%d,%d,%d,%d,%b,%s,%d\n" m.round m.src m.dst m.bytes
        m.byzantine m.label m.session)
    (messages t);
  Buffer.contents buf

let pp_messages fmt t ~n =
  let ms = messages t in
  Format.fprintf fmt "%d messages@." (List.length ms);
  let per_round = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if not m.byzantine then
        Hashtbl.replace per_round m.round
          ((8 * m.bytes) + Option.value ~default:0 (Hashtbl.find_opt per_round m.round)))
    ms;
  (* Rounds ascending, then a stable sort by bits: ties list the earlier
     round first. *)
  let hottest =
    Hashtbl.fold (fun r b acc -> (r, b) :: acc) per_round []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
  in
  Format.fprintf fmt "hottest rounds (honest kbits):@.";
  List.iteri
    (fun i (round, bits) ->
      if i < 5 then
        Format.fprintf fmt "  round %4d: %8.1f@." round (float_of_int bits /. 1000.))
    hottest;
  let sent = Array.make n 0 in
  List.iter
    (fun m ->
      if m.src >= 0 && m.src < n && m.dst >= 0 && m.dst < n then
        sent.(m.src) <- sent.(m.src) + m.bytes)
    ms;
  Format.fprintf fmt "per-sender bytes:@.";
  Array.iteri (fun src b -> Format.fprintf fmt "  party %2d: %8d@." src b) sent

(* ---- Chrome trace_event (catapult) export --------------------------------- *)

module Trace = struct
  (* One engine round maps to [round_us] virtual microseconds, so the
     timeline is a pure function of the deterministic execution: rendering
     the same recorder from any backend yields byte-identical JSON. Spans
     become "X" (complete) events on a pid=session / tid=party track; the
     engine's round timeline becomes counter ("C") events plus one global
     instant per round on a synthetic engine track. *)
  let round_us = 1000

  let chrome_trace t =
    let rounds = sorted_rounds t in
    let engine_pid = 1 + List.fold_left (fun acc s -> max acc s) (-1) (sessions t) in
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
    let last_session = ref (-1) in
    List.iter
      (fun b ->
        let s = b.b_session and p = b.b_party in
        if s <> !last_session then begin
          last_session := s;
          event
            {|{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"session %d"}}|}
            s s
        end;
        event
          {|{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":"party %d"}}|}
          s p p)
      (sorted_buckets t);
    if rounds <> [] then
      event
        {|{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"engine"}}|}
        engine_pid;
    (* Span tree as complete events. Duration is inclusive of the exit
       round ([enter, exit] in rounds), which keeps children inside their
       parent and zero-round spans visible. *)
    iter_span_paths t (fun b ~depth:_ ~path ~exit sp ->
        event
          {|{"ph":"X","name":"%s","cat":"span","pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":{"path":"%s","bits":%d,"msgs":%d}}|}
          (escape sp.sp_label) b.b_session b.b_party (sp.sp_enter * round_us)
          ((exit - sp.sp_enter + 1) * round_us)
          (escape path) sp.sp_bits sp.sp_msgs);
    (* Engine round barriers and per-round counters. *)
    List.iter
      (fun (r, c) ->
        let ts = r * round_us in
        event {|{"ph":"i","s":"g","name":"round %d","pid":%d,"tid":0,"ts":%d}|} r engine_pid
          ts;
        event
          {|{"ph":"C","name":"honest traffic","pid":%d,"ts":%d,"args":{"bits":%d,"msgs":%d}}|}
          engine_pid ts c.c_bits c.c_msgs;
        if c.c_live >= 0 then
          event {|{"ph":"C","name":"live sessions","pid":%d,"ts":%d,"args":{"live":%d}}|}
            engine_pid ts c.c_live)
      rounds;
    Buffer.add_string buf {|],"displayTimeUnit":"ms"}|};
    Buffer.add_char buf '\n';
    Buffer.contents buf
end

(* ---- export schema checks ------------------------------------------------- *)

module Check = struct
  open Json

  let require_int line obj key =
    match field obj key with
    | Some (Num f) when Float.is_integer f -> ()
    | _ -> raise (Bad (Printf.sprintf "%s: field %S missing or not an int" line key))

  let require_str line obj key =
    match field obj key with
    | Some (Str s) -> s
    | _ -> raise (Bad (Printf.sprintf "%s: field %S missing or not a string" line key))

  let require_bool line obj key =
    match field obj key with
    | Some (Bool _) -> ()
    | _ -> raise (Bad (Printf.sprintf "%s: field %S missing or not a boolean" line key))

  let require_tier line obj =
    match require_str line obj "tier" with
    | "det" | "sampled" -> ()
    | tr -> raise (Bad (Printf.sprintf "%s: unknown tier %S" line tr))

  let is_hex s = s <> "" && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

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

  let registry ~samples content =
    check_lines content (fun where obj ->
        let ints = List.iter (require_int where obj) in
        match kind_of obj with
        | "meta" ->
            ignore (require_str where obj "key");
            ignore (require_str where obj "value")
        | "round" ->
            ints [ "round"; "bits"; "msgs"; "byz_bits"; "byz_msgs" ];
            if field obj "live" <> None then require_int where obj "live"
        | "span" ->
            ints [ "session"; "party"; "depth"; "enter"; "exit"; "bits"; "msgs" ];
            ignore (require_str where obj "path");
            ignore (require_str where obj "label")
        | "probe" ->
            ints [ "session"; "party"; "round"; "iter" ];
            require_bool where obj "byzantine";
            ignore (require_str where obj "key");
            if not (is_hex (require_str where obj "value")) then
              raise (Bad (where ^ ": probe value is not lowercase hex"))
        | "total" -> ints [ "sessions"; "spans"; "probes"; "honest_bits"; "honest_msgs" ]
        | "counter" | "gauge" ->
            require_tier where obj;
            ignore (require_str where obj "name");
            require_int where obj "value"
        | "hist" ->
            require_tier where obj;
            ignore (require_str where obj "name");
            ints [ "count"; "sum"; "min"; "max"; "p50"; "p90"; "p99" ];
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
        | "sample" ->
            (* [idx], [round], [live], then the readings: every one an int. *)
            ints [ "idx"; "round"; "live" ];
            (match obj with
            | Obj fields ->
                List.iter (fun (k, _) -> if k <> "kind" then require_int where obj k) fields
            | _ -> ());
            Stdlib.incr samples
        | k -> raise (Bad (Printf.sprintf "%s: unexpected kind %S" where k)))

  let registry_jsonl content = registry ~samples:(ref 0) content

  let engine_jsonl content =
    let samples = ref 0 in
    match registry ~samples content with
    | Ok n when !samples = 0 -> Error (Printf.sprintf "no sample line in %d lines" n)
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
                  ignore (require_str "event" ev "name");
                  require_int "event" ev "pid";
                  match field ev "ph" with
                  | Some (Str "X") ->
                      List.iter (require_int "event" ev) [ "tid"; "ts"; "dur" ];
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
