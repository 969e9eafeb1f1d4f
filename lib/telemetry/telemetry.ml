(* Deterministic observability: span trees, round timelines, probes.

   Recording is mutation of per-(session × party) buckets plus shared
   per-round timeline cells, all under one mutex, so a recorder may be
   shared across domains (the round loop never does: domain-parallel
   sessions record into private shards, merged afterwards, so the lock is
   uncontended). Export walks the buckets in sorted key order and the spans
   in pre-order, so the JSONL is byte-identical across runs of the same
   deterministic execution no matter which domain recorded what. *)

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

type probe = {
  pr_key : string;
  pr_iter : int;  (* occurrence index of pr_key within this bucket *)
  pr_round : int;
  pr_byzantine : bool;
  pr_value : string;
}

type bucket = {
  b_session : int;
  b_party : int;
  b_root : span;
  mutable b_stack : span list;  (* open spans, innermost first; root last *)
  mutable b_probes_rev : probe list;
  b_probe_counts : (string, int) Hashtbl.t;
  mutable b_last_round : int;
}

type cell = {
  mutable c_bits : int;
  mutable c_msgs : int;
  mutable c_byz_bits : int;
  mutable c_byz_msgs : int;
  mutable c_live : int;  (* -1 when never recorded *)
}

type t = {
  mutex : Mutex.t;
  buckets : (int * int, bucket) Hashtbl.t;
  timeline : (int, cell) Hashtbl.t;
  mutable meta_rev : (string * string) list;
  (* One-entry caches for the per-message hot path: consecutive recordings
     overwhelmingly hit the same (session, party) bucket and the same round
     cell, and the cache check avoids both the tuple-key allocation and the
     hash lookup. Only read/written under the mutex. *)
  mutable cached_bucket : bucket option;
  mutable cached_round : int;
  mutable cached_cell : cell option;
  probes : bool;
}

let create ?(probes = true) () =
  {
    mutex = Mutex.create ();
    buckets = Hashtbl.create 64;
    timeline = Hashtbl.create 256;
    meta_rev = [];
    cached_bucket = None;
    cached_round = -1;
    cached_cell = None;
    probes;
  }

let capture_probes t = t.probes

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let set_meta t key value =
  locked t (fun () ->
      if List.mem_assoc key t.meta_rev then
        t.meta_rev <-
          List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) t.meta_rev
      else t.meta_rev <- (key, value) :: t.meta_rev)

let bucket t ~session ~party =
  match t.cached_bucket with
  | Some b when b.b_session = session && b.b_party = party -> b
  | _ ->
      let b =
        match Hashtbl.find_opt t.buckets (session, party) with
        | Some b -> b
        | None ->
            let root = mk_span ~label:root_label ~enter:0 in
            let b =
              {
                b_session = session;
                b_party = party;
                b_root = root;
                b_stack = [ root ];
                b_probes_rev = [];
                b_probe_counts = Hashtbl.create 8;
                b_last_round = 0;
              }
            in
            Hashtbl.add t.buckets (session, party) b;
            b
      in
      t.cached_bucket <- Some b;
      b

let touch b round = if round > b.b_last_round then b.b_last_round <- round

let push t ~session ~party ~round ~label =
  locked t (fun () ->
      let b = bucket t ~session ~party in
      touch b round;
      let sp = mk_span ~label ~enter:round in
      (match b.b_stack with
      | parent :: _ -> parent.sp_children_rev <- sp :: parent.sp_children_rev
      | [] -> assert false);
      b.b_stack <- sp :: b.b_stack)

let pop t ~session ~party ~round =
  locked t (fun () ->
      let b = bucket t ~session ~party in
      touch b round;
      match b.b_stack with
      | sp :: (_ :: _ as rest) ->
          sp.sp_exit <- round;
          b.b_stack <- rest
      | _ -> () (* only the root is open: mirror the runtimes' lenient Pop *))

let probe_event t ~session ~party ~round ~byzantine ~key ~value =
  if not t.probes then ()
  else
    locked t (fun () ->
      let b = bucket t ~session ~party in
      touch b round;
      let iter = Option.value ~default:0 (Hashtbl.find_opt b.b_probe_counts key) in
      Hashtbl.replace b.b_probe_counts key (iter + 1);
      b.b_probes_rev <-
        { pr_key = key; pr_iter = iter; pr_round = round; pr_byzantine = byzantine;
          pr_value = value }
        :: b.b_probes_rev)

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

(* The per-message recorder is the hot path (once per sent message); it locks
   directly — no Fun.protect closure — because its body cannot raise. *)
let message t ~session ~party ~round ~timeline_round ~bytes ~byzantine =
  Mutex.lock t.mutex;
  let bits = 8 * bytes in
  let c = cell t timeline_round in
  if byzantine then begin
    c.c_byz_bits <- c.c_byz_bits + bits;
    c.c_byz_msgs <- c.c_byz_msgs + 1
  end
  else begin
    c.c_bits <- c.c_bits + bits;
    c.c_msgs <- c.c_msgs + 1;
    let b = bucket t ~session ~party in
    touch b round;
    match b.b_stack with
    | sp :: _ ->
        sp.sp_bits <- sp.sp_bits + bits;
        sp.sp_msgs <- sp.sp_msgs + 1
    | [] -> ()
  end;
  Mutex.unlock t.mutex

let live_sessions t ~round ~live =
  locked t (fun () -> (cell t round).c_live <- live)

let finish t ~session ~party ~round =
  locked t (fun () ->
      let b = bucket t ~session ~party in
      touch b round;
      (* Close anything a truncated run left open; the root stays open and is
         given its exit round at export time (b_last_round). *)
      List.iter (fun sp -> if sp != b.b_root then sp.sp_exit <- round) b.b_stack;
      b.b_stack <- [ b.b_root ])

(* Shard merge for parallel runs. The engine gives each session its own shard
   recorder, so across the shards of one run every (session × party) bucket
   exists exactly once — adopting them wholesale preserves each bucket's
   event order, and the export's sorted-bucket walk does the rest. Timeline
   cells add (sums commute, so the result is independent of merge order);
   [live] counts are recorded once, by the coordinator, and max-merge so a
   shard that never saw them (-1) cannot erase them. *)
let merge ~into src =
  if into == src then invalid_arg "Telemetry.merge: merging a recorder into itself";
  let src_buckets, src_rounds, src_meta =
    locked src (fun () ->
        ( Hashtbl.fold (fun key b acc -> (key, b) :: acc) src.buckets [],
          Hashtbl.fold (fun r c acc -> (r, c) :: acc) src.timeline [],
          List.rev src.meta_rev ))
  in
  locked into (fun () ->
      List.iter
        (fun (key, b) ->
          if Hashtbl.mem into.buckets key then
            invalid_arg
              (Printf.sprintf
                 "Telemetry.merge: bucket (session %d, party %d) present in both"
                 b.b_session b.b_party);
          Hashtbl.add into.buckets key b)
        src_buckets;
      List.iter
        (fun (r, sc) ->
          let c = cell into r in
          c.c_bits <- c.c_bits + sc.c_bits;
          c.c_msgs <- c.c_msgs + sc.c_msgs;
          c.c_byz_bits <- c.c_byz_bits + sc.c_byz_bits;
          c.c_byz_msgs <- c.c_byz_msgs + sc.c_byz_msgs;
          if sc.c_live > c.c_live then c.c_live <- sc.c_live)
        src_rounds;
      List.iter
        (fun (k, v) ->
          if not (List.mem_assoc k into.meta_rev) then
            into.meta_rev <- (k, v) :: into.meta_rev)
        src_meta)

(* ---- queries -------------------------------------------------------------- *)

let sorted_buckets t =
  Hashtbl.fold (fun _ b acc -> b :: acc) t.buckets []
  |> List.sort (fun a b -> compare (a.b_session, a.b_party) (b.b_session, b.b_party))

let rec iter_spans f sp =
  f sp;
  List.iter (iter_spans f) (List.rev sp.sp_children_rev)

let sessions t =
  locked t (fun () ->
      List.sort_uniq compare
        (Hashtbl.fold (fun (s, _) _ acc -> s :: acc) t.buckets []))

let bucket_bits b =
  let total = ref 0 in
  iter_spans (fun sp -> total := !total + sp.sp_bits) b.b_root;
  !total

let honest_bits t ~session =
  locked t (fun () ->
      List.fold_left
        (fun acc b -> if b.b_session = session then acc + bucket_bits b else acc)
        0 (sorted_buckets t))

let honest_bits_total t =
  locked t (fun () ->
      List.fold_left (fun acc b -> acc + bucket_bits b) 0 (sorted_buckets t))

let label_bits t =
  locked t (fun () ->
      let table = Hashtbl.create 16 in
      List.iter
        (fun b ->
          iter_spans
            (fun sp ->
              if sp.sp_bits > 0 then begin
                let label =
                  if sp.sp_label = root_label then unlabeled else sp.sp_label
                in
                Hashtbl.replace table label
                  (sp.sp_bits
                  + Option.value ~default:0 (Hashtbl.find_opt table label))
              end)
            b.b_root)
        (sorted_buckets t);
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
      |> List.sort (fun (la, a) (lb, b) ->
             if a <> b then compare b a else compare la lb))

let probe_keys t ~session =
  locked t (fun () ->
      let keys = Hashtbl.create 8 in
      List.iter
        (fun b ->
          if b.b_session = session then
            List.iter (fun p -> Hashtbl.replace keys p.pr_key ()) b.b_probes_rev)
        (sorted_buckets t);
      List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys []))

let convergence t ~session ~key =
  locked t (fun () ->
      let hulls = Hashtbl.create 32 in
      (* iter index -> (lo, hi) over honest parties' parsed values *)
      let max_iter = ref (-1) in
      List.iter
        (fun b ->
          if b.b_session = session then
            List.iter
              (fun p ->
                if p.pr_key = key && not p.pr_byzantine then
                  match Bigint.of_hex p.pr_value with
                  | v ->
                      if p.pr_iter > !max_iter then max_iter := p.pr_iter;
                      Hashtbl.replace hulls p.pr_iter
                        (match Hashtbl.find_opt hulls p.pr_iter with
                        | None -> (v, v)
                        | Some (lo, hi) -> (Bigint.min lo v, Bigint.max hi v))
                  | exception Invalid_argument _ -> ())
              b.b_probes_rev)
        (sorted_buckets t);
      List.filter_map
        (fun i -> Hashtbl.find_opt hulls i)
        (List.init (!max_iter + 1) Fun.id))

(* ---- structural views (the span -> trace_event bridge) -------------------- *)

type span_view = {
  v_session : int;
  v_party : int;
  v_depth : int;
  v_path : string;
  v_label : string;
  v_enter : int;
  v_exit : int;
  v_bits : int;
  v_msgs : int;
}

let iter_span_views t f =
  locked t (fun () ->
      List.iter
        (fun b ->
          let rec walk path depth sp =
            let path =
              if path = "" then sp.sp_label else path ^ "/" ^ sp.sp_label
            in
            let exit = if sp.sp_exit < 0 then b.b_last_round else sp.sp_exit in
            f
              {
                v_session = b.b_session;
                v_party = b.b_party;
                v_depth = depth;
                v_path = path;
                v_label = sp.sp_label;
                v_enter = sp.sp_enter;
                v_exit = exit;
                v_bits = sp.sp_bits;
                v_msgs = sp.sp_msgs;
              };
            List.iter (walk path (depth + 1)) (List.rev sp.sp_children_rev)
          in
          walk "" 0 b.b_root)
        (sorted_buckets t))

type round_view = {
  r_round : int;
  r_bits : int;
  r_msgs : int;
  r_byz_bits : int;
  r_byz_msgs : int;
  r_live : int;
}

let iter_round_views t f =
  locked t (fun () ->
      Hashtbl.fold (fun r c acc -> (r, c) :: acc) t.timeline []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (r, c) ->
             f
               {
                 r_round = r;
                 r_bits = c.c_bits;
                 r_msgs = c.c_msgs;
                 r_byz_bits = c.c_byz_bits;
                 r_byz_msgs = c.c_byz_msgs;
                 r_live = c.c_live;
               }))

(* ---- JSONL export --------------------------------------------------------- *)

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

let to_jsonl t =
  locked t (fun () ->
      let buf = Buffer.create 4096 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
      List.iter
        (fun (k, v) ->
          line {|{"kind":"meta","key":"%s","value":"%s"}|} (escape k) (escape v))
        (List.rev t.meta_rev);
      let rounds =
        Hashtbl.fold (fun r c acc -> (r, c) :: acc) t.timeline []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iter
        (fun (r, c) ->
          let live = if c.c_live >= 0 then Printf.sprintf {|,"live":%d|} c.c_live else "" in
          line {|{"kind":"round","round":%d,"bits":%d,"msgs":%d,"byz_bits":%d,"byz_msgs":%d%s}|}
            r c.c_bits c.c_msgs c.c_byz_bits c.c_byz_msgs live)
        rounds;
      let buckets = sorted_buckets t in
      let n_spans = ref 0 in
      List.iter
        (fun b ->
          let rec walk path depth sp =
            incr n_spans;
            let path = if path = "" then sp.sp_label else path ^ "/" ^ sp.sp_label in
            let exit = if sp.sp_exit < 0 then b.b_last_round else sp.sp_exit in
            line
              {|{"kind":"span","session":%d,"party":%d,"depth":%d,"path":"%s","label":"%s","enter":%d,"exit":%d,"bits":%d,"msgs":%d}|}
              b.b_session b.b_party depth (escape path) (escape sp.sp_label)
              sp.sp_enter exit sp.sp_bits sp.sp_msgs;
            List.iter (walk path (depth + 1)) (List.rev sp.sp_children_rev)
          in
          walk "" 0 b.b_root)
        buckets;
      let n_probes = ref 0 in
      List.iter
        (fun b ->
          List.iter
            (fun p ->
              incr n_probes;
              line
                {|{"kind":"probe","session":%d,"party":%d,"round":%d,"byzantine":%b,"key":"%s","iter":%d,"value":"%s"}|}
                b.b_session b.b_party p.pr_round p.pr_byzantine (escape p.pr_key)
                p.pr_iter (escape p.pr_value))
            (List.rev b.b_probes_rev))
        buckets;
      let bits = List.fold_left (fun acc b -> acc + bucket_bits b) 0 buckets in
      let msgs =
        List.fold_left
          (fun acc b ->
            let m = ref 0 in
            iter_spans (fun sp -> m := !m + sp.sp_msgs) b.b_root;
            acc + !m)
          0 buckets
      in
      let n_sessions =
        List.length (List.sort_uniq compare (List.map (fun b -> b.b_session) buckets))
      in
      line
        {|{"kind":"total","sessions":%d,"spans":%d,"probes":%d,"honest_bits":%d,"honest_msgs":%d}|}
        n_sessions !n_spans !n_probes bits msgs;
      Buffer.contents buf)

(* ---- text report ---------------------------------------------------------- *)

(* Aggregation of the per-bucket span trees by path: children keep first-seen
   order (buckets are visited in sorted order, so this is deterministic). *)
type agg = {
  mutable g_bits : int;
  mutable g_msgs : int;
  mutable g_min_enter : int;
  mutable g_max_exit : int;
  mutable g_buckets : int;
  mutable g_children_rev : (string * agg) list;
}

let mk_agg () =
  {
    g_bits = 0;
    g_msgs = 0;
    g_min_enter = max_int;
    g_max_exit = 0;
    g_buckets = 0;
    g_children_rev = [];
  }

let pp_report ?(top = 10) fmt t =
  let buckets = locked t (fun () -> sorted_buckets t) in
  let meta = locked t (fun () -> List.rev t.meta_rev) in
  let root_agg = mk_agg () in
  List.iter
    (fun b ->
      let rec merge agg sp =
        agg.g_bits <- agg.g_bits + sp.sp_bits;
        agg.g_msgs <- agg.g_msgs + sp.sp_msgs;
        agg.g_buckets <- agg.g_buckets + 1;
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
  let deep_bits g =
    (* inclusive of children, for the tree display *)
    let rec go g =
      g.g_bits + List.fold_left (fun acc (_, c) -> acc + go c) 0 g.g_children_rev
    in
    go g
  in
  let total_bits = deep_bits root_agg in
  let n_sessions =
    List.length (List.sort_uniq compare (List.map (fun b -> b.b_session) buckets))
  in
  let share b =
    if total_bits = 0 then 0. else 100. *. float_of_int b /. float_of_int total_bits
  in
  Format.fprintf fmt "telemetry report@.";
  List.iter (fun (k, v) -> Format.fprintf fmt "  %-12s %s@." (k ^ ":") v) meta;
  let total_msgs =
    List.fold_left
      (fun acc b ->
        let m = ref 0 in
        iter_spans (fun sp -> m := !m + sp.sp_msgs) b.b_root;
        acc + !m)
      0 buckets
  in
  Format.fprintf fmt "  sessions: %d   buckets: %d   honest bits: %d   msgs: %d@."
    n_sessions (List.length buckets) total_bits total_msgs;
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
  let rounds =
    locked t (fun () ->
        Hashtbl.fold (fun r c acc -> (r, c.c_bits, c.c_live) :: acc) t.timeline []
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b))
  in
  (match (rounds, List.rev rounds) with
  | (lo, _, _) :: _, (hi, _, _) :: _ ->
      let bins = 48 in
      let width = max 1 ((hi - lo + bins) / bins) in
      let sums = Array.make bins 0 in
      let lives = Array.make bins (-1) in
      List.iter
        (fun (r, bits, live) ->
          let i = min (bins - 1) ((r - lo) / width) in
          sums.(i) <- sums.(i) + bits;
          if live > lives.(i) then lives.(i) <- live)
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
  (* Top-k labels. *)
  let labels = label_bits t in
  if labels <> [] then begin
    Format.fprintf fmt "@.top labels (exclusive bits):@.";
    List.iteri
      (fun i (l, b) ->
        if i < top then
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
            let monotone =
              let rec ok = function
                | a :: (b :: _ as rest) -> Bigint.compare b a <= 0 && ok rest
                | _ -> true
              in
              ok widths
            in
            Format.fprintf fmt
              "@.probe %s (session %d): %d iterations, hull width %s -> %s%s@." key
              session (List.length widths)
              (Bigint.to_string (List.hd widths))
              (Bigint.to_string (List.nth widths (List.length widths - 1)))
              (if monotone then " (monotone non-increasing)" else "");
            List.iteri
              (fun i w ->
                if i < 16 then
                  Format.fprintf fmt "    iter %2d: width %s@." i (Bigint.to_string w)
                else if i = 16 then Format.fprintf fmt "    ...@.")
              widths
          end)
        (probe_keys t ~session))
    (sessions t)
