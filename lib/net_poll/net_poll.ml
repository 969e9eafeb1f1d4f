(* Single-process event loop. One socketpair per unordered party pair; the
   directed connection src->dst writes on src's endpoint and reads on dst's,
   so each fd has exactly one writer role and one reader role (possibly
   active in the same select).

   Wire format per direction: u32 big-endian body length, then the encoded
   Wire.Frame, decoded incrementally by Wire.Frame.Decoder so a frame split
   across any number of partial reads reassembles without ever blocking the
   loop.

   Allocation discipline: the steady-state byte path reuses per-connection
   buffers end to end. Outbound, each
   connection owns a grow-only scratch [c_out] holding the round's prefixed
   frame, written straight from the round loop's slots
   (Wire.Frame.write_edge) — no frame string or prefix concatenation exists.
   Inbound, reads land in one shared scratch and are fed to the decoder by
   offset (feed_sub); each connection's slot sink (Wire.Frame.edge_sink)
   parses a frame straight into the loop's delivery index. An entry whose
   bytes match what was sent on its edge is delivered as the sent value
   itself, so a faithful round copies no payload; what remains per round is
   the select loop's own bookkeeping (fd lists, wall-clock stamps) and a
   fresh copy of any entry that differs from what was sent. *)

type stats = {
  p_rounds : int;
  p_frames : int;
  p_frame_bytes : int;
  p_wire_bytes : int;
  p_reads : int;
  p_writes : int;
  p_polls : int;
  p_parked : int;
  p_max_backlog : int;
  p_minor_words_per_round : float;
  p_select_wait_max_s : float;
  p_select_wait_mean_s : float;
  p_conn_peak_backlog : int array array;
}

type sink = {
  sink_select_wait : float -> unit;
  sink_write_stall : float -> unit;
}

(* ---- bounded byte ring ---------------------------------------------------- *)

module Ring = struct
  type t = {
    buf : Bytes.t;
    mutable head : int;  (* read position *)
    mutable len : int;
  }

  let create cap = { buf = Bytes.create cap; head = 0; len = 0 }
  let capacity r = Bytes.length r.buf
  let length r = r.len
  let free r = capacity r - r.len

  (* Copy as much of [src.[off .. off+avail-1]] as fits; returns the bytes
     taken. *)
  let push r src off avail =
    let cap = capacity r in
    let take = min avail (free r) in
    let tail = (r.head + r.len) mod cap in
    let first = min take (cap - tail) in
    Bytes.blit src off r.buf tail first;
    if take > first then Bytes.blit src (off + first) r.buf 0 (take - first);
    r.len <- r.len + take;
    take

  (* One nonblocking write of the contiguous prefix; returns bytes written
     (0 on EAGAIN). *)
  let write_fd r fd =
    if r.len = 0 then 0
    else begin
      let cap = capacity r in
      let chunk = min r.len (cap - r.head) in
      match Unix.write fd r.buf r.head chunk with
      | written ->
          r.head <- (r.head + written) mod cap;
          r.len <- r.len - written;
          if r.len = 0 then r.head <- 0;
          written
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
    end
end

(* ---- connections ---------------------------------------------------------- *)

type conn = {
  c_src : int;
  c_dst : int;
  c_wfd : Unix.file_descr;  (* src's endpoint: this direction writes here *)
  c_rfd : Unix.file_descr;  (* dst's endpoint: this direction reads here *)
  c_ring : Ring.t;
  c_dec : Wire.Frame.Decoder.t;
  mutable c_out : Bytes.t;
      (* Reusable outbound scratch: the round's u32-prefixed frame lives in
         [c_out.[0 .. c_out_len-1]]. Grow-only. *)
  mutable c_out_len : int;
  mutable c_off : int;  (* bytes of [c_out] already admitted to the ring *)
  mutable c_got : bool;  (* this round's inbound frame has arrived *)
  mutable c_sink : Wire.Frame.sink;
      (* parses inbound frames into the bound slots' delivery index *)
  mutable c_peak_backlog : int;  (* peak queued bytes over this conn's life *)
  mutable c_park_t : float;  (* wall clock when the current stall began; -1.0 *)
}

type t = {
  n : int;
  conns : conn array;  (* every ordered pair, src-major *)
  pair_fds : Unix.file_descr list;  (* each endpoint once, for close *)
  scratch : Bytes.t;
  mutable expect : int;  (* the round the current exchange moves *)
  mutable bound : Wire.Frame.slots;  (* the slots every [c_sink] fills *)
  mutable closed : bool;
  mutable s_rounds : int;
  mutable s_frames : int;
  mutable s_frame_bytes : int;
  mutable s_wire_bytes : int;
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_polls : int;
  mutable s_parked : int;
  mutable s_max_backlog : int;
  mutable s_minor_words : float;
  mutable s_select_wait_total : float;
  mutable s_select_wait_max : float;
  mutable sink : sink option;
}

let stall_timeout = 30.0

(* Placeholder before a transport exchange binds the loop's slots: no entry
   can land in it. *)
let no_slots = { Wire.Frame.live = 0; sids = [||]; sent = [||]; delivered = [||] }

let create ?(outbuf = 64 * 1024) ?(max_frame = Wire.Frame.max_frame_bytes) ~n ()
    =
  if n < 1 then invalid_arg "Net_poll.create: n < 1";
  let outbuf = max outbuf 16 in
  (* endpoints.(i).(j): party i's end of the (i, j) socketpair. *)
  let endpoints = Array.make_matrix n n Unix.stdin in
  let pair_fds = ref [] in
  (try
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         Unix.set_nonblock a;
         Unix.set_nonblock b;
         endpoints.(i).(j) <- a;
         endpoints.(j).(i) <- b;
         pair_fds := a :: b :: !pair_fds
       done
     done
   with e ->
     (* No fd leak on a failed mesh bring-up. *)
     List.iter
       (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
       !pair_fds;
     raise e);
  let conns = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      if src <> dst then
        conns :=
          {
            c_src = src;
            c_dst = dst;
            c_wfd = endpoints.(src).(dst);
            c_rfd = endpoints.(dst).(src);
            c_ring = Ring.create outbuf;
            c_dec = Wire.Frame.Decoder.create ~max_frame ();
            c_out = Bytes.create 256;
            c_out_len = 0;
            c_off = 0;
            c_got = false;
            c_sink = Wire.Frame.edge_sink no_slots ~src ~dst ~on_round:ignore;
            c_peak_backlog = 0;
            c_park_t = -1.0;
          }
          :: !conns
    done
  done;
  {
    n;
    conns = Array.of_list !conns;
    pair_fds = !pair_fds;
    scratch = Bytes.create 65536;
    expect = 0;
    bound = no_slots;
    closed = false;
    s_rounds = 0;
    s_frames = 0;
    s_frame_bytes = 0;
    s_wire_bytes = 0;
    s_reads = 0;
    s_writes = 0;
    s_polls = 0;
    s_parked = 0;
    s_max_backlog = 0;
    s_minor_words = 0.0;
    s_select_wait_total = 0.0;
    s_select_wait_max = 0.0;
    sink = None;
  }

let set_sink t sink = t.sink <- sink

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.pair_fds
  end

let stats t =
  {
    p_rounds = t.s_rounds;
    p_frames = t.s_frames;
    p_frame_bytes = t.s_frame_bytes;
    p_wire_bytes = t.s_wire_bytes;
    p_reads = t.s_reads;
    p_writes = t.s_writes;
    p_polls = t.s_polls;
    p_parked = t.s_parked;
    p_max_backlog = t.s_max_backlog;
    p_minor_words_per_round =
      (if t.s_rounds = 0 then 0.0
       else t.s_minor_words /. float_of_int t.s_rounds);
    p_select_wait_max_s = t.s_select_wait_max;
    p_select_wait_mean_s =
      (if t.s_polls = 0 then 0.0
       else t.s_select_wait_total /. float_of_int t.s_polls);
    p_conn_peak_backlog =
      (let m = Array.make_matrix t.n t.n 0 in
       Array.iter (fun c -> m.(c.c_src).(c.c_dst) <- c.c_peak_backlog) t.conns;
       m);
  }

(* Bytes not yet flushed to the kernel for one connection. *)
let backlog c = Ring.length c.c_ring + (c.c_out_len - c.c_off)

(* Stage one connection's round frame in [c_out]: grow the scratch to fit and
   write the u32 body-length prefix at offset 0. The caller writes the
   [body_len] body bytes at offset 4, then calls [send_frame]. The scratch is
   reused every round after. *)
let stage_frame c ~body_len =
  let total = 4 + body_len in
  if Bytes.length c.c_out < total then
    c.c_out <- Bytes.create (max total (2 * Bytes.length c.c_out));
  Bytes.set c.c_out 0 (Char.chr ((body_len lsr 24) land 0xff));
  Bytes.set c.c_out 1 (Char.chr ((body_len lsr 16) land 0xff));
  Bytes.set c.c_out 2 (Char.chr ((body_len lsr 8) land 0xff));
  Bytes.set c.c_out 3 (Char.chr (body_len land 0xff))

(* Queue the staged frame: whatever fits goes straight into the ring, the
   rest parks. *)
let send_frame t c ~body_len =
  let total = 4 + body_len in
  c.c_out_len <- total;
  c.c_off <- Ring.push c.c_ring c.c_out 0 total;
  c.c_got <- false;
  t.s_frames <- t.s_frames + 1;
  t.s_frame_bytes <- t.s_frame_bytes + body_len;
  t.s_wire_bytes <- t.s_wire_bytes + total;
  if c.c_off < total then begin
    t.s_parked <- t.s_parked + 1;
    (* A stall is the span from the first park until the whole backlog
       drains; the stamp is taken only on the (rare) parked path. *)
    if c.c_park_t < 0.0 then c.c_park_t <- Unix.gettimeofday ()
  end;
  let b = backlog c in
  t.s_max_backlog <- max t.s_max_backlog b;
  c.c_peak_backlog <- max c.c_peak_backlog b

(* Admit parked frame bytes into the ring, then flush the ring. Returns true
   if any byte moved to the kernel. *)
let service_write t c =
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    if c.c_off < c.c_out_len then
      c.c_off <- c.c_off + Ring.push c.c_ring c.c_out c.c_off (c.c_out_len - c.c_off);
    let written = Ring.write_fd c.c_ring c.c_wfd in
    if written > 0 then begin
      t.s_writes <- t.s_writes + 1;
      progressed := true
    end
    else continue := false;
    if Ring.length c.c_ring = 0 && c.c_off = c.c_out_len then continue := false
  done;
  if c.c_park_t >= 0.0 && backlog c = 0 then begin
    let stall = Unix.gettimeofday () -. c.c_park_t in
    c.c_park_t <- -1.0;
    match t.sink with Some s -> s.sink_write_stall stall | None -> ()
  end;
  !progressed

(* Accept one inbound frame's round, before any of its entries lands. *)
let got_frame t c round =
  if round <> t.expect then
    failwith
      (Printf.sprintf "Net_poll: expected round %d, got %d" t.expect round);
  if c.c_got then failwith "Net_poll: duplicate frame in one round";
  c.c_got <- true

let rec pump c =
  match Wire.Frame.Decoder.next_with c.c_dec c.c_sink with
  | Error msg -> failwith ("Net_poll: " ^ msg)
  | Ok false -> ()
  | Ok true -> pump c

let service_read t c =
  match Unix.read c.c_rfd t.scratch 0 (Bytes.length t.scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | 0 -> failwith "Net_poll: connection closed mid-round"
  | k ->
      t.s_reads <- t.s_reads + 1;
      Wire.Frame.Decoder.feed_sub c.c_dec t.scratch 0 k;
      pump c

(* Drive the event loop until every connection has both flushed its round
   frame and received its peer's. Every connection must have been loaded by
   [send_frame] first. *)
let drive t =
  let undone = ref (Array.length t.conns) in
  (* Drain any bytes the decoders already hold (cannot happen between
     lock-step rounds, but keeps the loop's invariant local). *)
  Array.iter
    (fun c ->
      if Wire.Frame.Decoder.buffered c.c_dec > 0 then service_read t c;
      if c.c_got then decr undone)
    t.conns;
  while !undone > 0 do
    let wconns = ref [] and rconns = ref [] in
    Array.iter
      (fun c ->
        if backlog c > 0 then wconns := c :: !wconns;
        if not c.c_got then rconns := c :: !rconns)
      t.conns;
    let rfds = List.map (fun c -> c.c_rfd) !rconns in
    let wfds = List.map (fun c -> c.c_wfd) !wconns in
    t.s_polls <- t.s_polls + 1;
    let sel_t0 = Unix.gettimeofday () in
    let readable, writable, _ = Unix.select rfds wfds [] stall_timeout in
    let wait = Unix.gettimeofday () -. sel_t0 in
    t.s_select_wait_total <- t.s_select_wait_total +. wait;
    if wait > t.s_select_wait_max then t.s_select_wait_max <- wait;
    (match t.sink with Some s -> s.sink_select_wait wait | None -> ());
    if readable = [] && writable = [] then
      failwith "Net_poll: stalled (nothing readable or writable)";
    List.iter
      (fun c ->
        if List.memq c.c_wfd writable then begin
          ignore (service_write t c);
          let b = backlog c in
          t.s_max_backlog <- max t.s_max_backlog b;
          c.c_peak_backlog <- max c.c_peak_backlog b
        end)
      !wconns;
    List.iter
      (fun c ->
        if List.memq c.c_rfd readable && not c.c_got then begin
          service_read t c;
          if c.c_got then decr undone
        end)
      !rconns
  done;
  t.s_rounds <- t.s_rounds + 1

(* One round: write each pair's frame straight from the loop's slots into
   the connection's outbound scratch, and parse each inbound frame straight
   into the slots' delivery index. The sinks are bound to a slots record
   once, on its first exchange; the loop reuses one record for a whole
   run. *)
let exchange t ~round (s : Wire.Frame.slots) =
  if t.closed then invalid_arg "Net_poll.exchange: closed";
  let mw0 = Gc.minor_words () in
  if t.bound != s then begin
    t.bound <- s;
    Array.iter
      (fun c ->
        c.c_sink <-
          Wire.Frame.edge_sink s ~src:c.c_src ~dst:c.c_dst
            ~on_round:(got_frame t c))
      t.conns
  end;
  t.expect <- round;
  Array.iter
    (fun c ->
      let src = c.c_src and dst = c.c_dst in
      let body_len = Wire.Frame.edge_size s ~round ~src ~dst in
      stage_frame c ~body_len;
      ignore (Wire.Frame.write_edge s ~round ~src ~dst c.c_out 4 : int);
      send_frame t c ~body_len)
    t.conns;
  drive t;
  t.s_minor_words <- t.s_minor_words +. (Gc.minor_words () -. mw0)

let transport t =
  {
    Net.Transport.name = "poll";
    direct = false;
    exchange = (fun ~round ~entries -> exchange t ~round entries);
    close = (fun () -> close t);
  }

(* ---- process memory probes ------------------------------------------------ *)

let read_proc_line path =
  match open_in path with
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      line
  | exception Sys_error _ -> None

let rss_bytes () =
  (* /proc/self/statm field 2 is the resident set in pages; the page size on
     every platform this repo targets is 4096 (no getpagesize binding in the
     stdlib's Unix). *)
  match read_proc_line "/proc/self/statm" with
  | None -> None
  | Some line -> (
      match String.split_on_char ' ' line with
      | _ :: resident :: _ -> (
          match int_of_string_opt resident with
          | Some pages -> Some (pages * 4096)
          | None -> None)
      | _ -> None)

let parse_vm_line ~key line =
  let klen = String.length key in
  if String.length line <= klen || String.sub line 0 klen <> key then None
  else
    let rest = String.sub line klen (String.length line - klen) in
    let digits =
      String.to_seq rest
      |> Seq.filter (fun c -> c >= '0' && c <= '9')
      |> String.of_seq
    in
    match int_of_string_opt digits with
    | Some kb -> Some (kb * 1024)
    | None -> None

(* Some kernels (and containers hiding /proc detail) omit VmHWM; report the
   last peak we did see rather than pretending the process shrank to
   nothing. *)
let last_peak = ref None

let rss_peak_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> !last_peak
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match parse_vm_line ~key:"VmHWM:" line with
            | Some v -> Some v
            | None -> scan ())
      in
      let r = scan () in
      close_in ic;
      (match r with
      | Some _ -> last_peak := r
      | None -> ());
      (match r with Some _ -> r | None -> !last_peak)
