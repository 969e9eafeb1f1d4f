(* Single-process event loop. One socketpair per unordered party pair; the
   directed connection src->dst writes on src's endpoint and reads on dst's,
   so each fd has exactly one writer role and one reader role (possibly
   active in the same select).

   Wire format per direction: u32 big-endian body length, then the encoded
   Wire.Frame. Wire.Frame.Decoder (feed_sub, next_body) reassembles each
   body across any number of partial reads without ever blocking the loop,
   refusing a declared length over Wire.Frame.max_frame_bytes before it
   buffers the body, and hands it to the frame's one reader,
   Wire.Frame.edge_receive. The frame bytes a round moves are the round
   loop's ledger, sized by Wire.Frame.header_bytes and entry_bytes.

   Backpressure: each frame goes to the socket straight from its staged
   record at once; whatever the kernel's send buffer does not take parks
   in place ([c_off]) and is written as [select] reports the fd writable.

   Allocation discipline: the steady-state byte path reuses per-connection
   buffers end to end. Outbound, each connection owns a grow-only staged
   record [c_out] holding the round's prefixed frame, written straight from
   the round loop's slots in one walk (Wire.Frame.write_edge) — no frame
   string, prefix concatenation or second outbound buffer exists. Inbound,
   reads land in one shared scratch and are fed to the decoder by offset
   (feed_sub). The connection that writes a direction also decodes it, so
   each body that completes is compared with [c_out]'s
   (Wire.Frame.edge_receive): a body that arrived as written is not parsed
   and leaves the edge's cells of the loop's slots as they are; any other
   is validated and parsed into those cells, each entry a fresh copy. A
   faithful round therefore copies no payload; what remains per round is
   the select loop's own bookkeeping (fd lists, wall-clock stamps). *)

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

(* ---- connections ---------------------------------------------------------- *)

type conn = {
  c_src : int;
  c_dst : int;
  c_wfd : Unix.file_descr;  (* src's endpoint: this direction writes here *)
  c_rfd : Unix.file_descr;  (* dst's endpoint: this direction reads here *)
  c_dec : Wire.Frame.Decoder.t;
  c_out : Wire.Frame.staged;
      (* The round's u32-prefixed frame, [c_out.bytes.[first .. stop-1]];
         reused every round, grow-only. *)
  mutable c_off : int;  (* next byte of [c_out] to write to the socket *)
  mutable c_got : bool;  (* this round's inbound frame has arrived *)
  mutable c_recv : Bytes.t -> int -> int -> bool;
      (* takes an inbound body against [c_out] into the bound slots *)
  mutable c_peak_backlog : int;  (* peak parked bytes over this conn's life *)
  mutable c_park_t : float;  (* wall clock when the round's frame parked *)
}

type t = {
  n : int;
  conns : conn array;  (* every ordered pair, src-major *)
  pair_fds : Unix.file_descr list;  (* each endpoint once, for close *)
  writer_of : (Unix.file_descr, conn) Hashtbl.t;
      (* the connection that writes on an endpoint ([c_wfd]) *)
  reader_of : (Unix.file_descr, conn) Hashtbl.t;
      (* the connection that reads from an endpoint ([c_rfd]) *)
  scratch : Bytes.t;
  mutable expect : int;  (* the round the current exchange moves *)
  mutable bound : Wire.Frame.slots;  (* the slots every [c_recv] delivers into *)
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
  select_waits : Obs.Hist.t;  (* ns, one per [select] *)
  write_stalls : Obs.Hist.t;  (* ns, one per drained park *)
}

let stall_timeout = 30.0

(* Placeholder before a transport exchange binds the loop's slots: no entry
   can land in it. *)
let no_slots = { Wire.Frame.live = 0; sids = [||]; msgs = [||] }

let no_recv _ _ _ = false

let create ~n () =
  if n < 1 then invalid_arg "Net_poll.create: n < 1";
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
            c_dec = Wire.Frame.Decoder.create ();
            c_out = Wire.Frame.staged ();
            c_off = 0;
            c_got = false;
            c_recv = no_recv;
            c_peak_backlog = 0;
            c_park_t = 0.0;
          }
          :: !conns
    done
  done;
  let conns = Array.of_list !conns in
  let writer_of = Hashtbl.create (Array.length conns) in
  let reader_of = Hashtbl.create (Array.length conns) in
  Array.iter
    (fun c ->
      Hashtbl.replace writer_of c.c_wfd c;
      Hashtbl.replace reader_of c.c_rfd c)
    conns;
  {
    n;
    conns;
    pair_fds = !pair_fds;
    writer_of;
    reader_of;
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
    select_waits = Obs.Hist.create ();
    write_stalls = Obs.Hist.create ();
  }

let select_waits t = t.select_waits
let write_stalls t = t.write_stalls

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
    p_select_wait_max_s = float_of_int (Obs.Hist.max_value t.select_waits) /. 1e9;
    p_select_wait_mean_s = Obs.Hist.mean t.select_waits /. 1e9;
    p_conn_peak_backlog =
      (let m = Array.make_matrix t.n t.n 0 in
       Array.iter (fun c -> m.(c.c_src).(c.c_dst) <- c.c_peak_backlog) t.conns;
       m);
  }

(* Bytes of the round's frame the kernel has not taken yet. *)
let backlog c = c.c_out.Wire.Frame.stop - c.c_off

(* Write what the kernel takes of [c_out]'s unwritten bytes. Each
   [Unix.single_write] is one [write(2)], so [s_writes] counts syscalls. *)
let rec flush t c =
  let { Wire.Frame.bytes; stop; _ } = c.c_out in
  if c.c_off < stop then
    match Unix.single_write c.c_wfd bytes c.c_off (stop - c.c_off) with
    | written ->
        t.s_writes <- t.s_writes + 1;
        c.c_off <- c.c_off + written;
        flush t c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Send the frame staged in [c_out]: whatever the kernel takes is written at
   once, the rest parks until [select] reports the fd writable. *)
let send_frame t c =
  let { Wire.Frame.first; stop; _ } = c.c_out in
  let total = stop - first in
  c.c_off <- first;
  c.c_got <- false;
  t.s_frames <- t.s_frames + 1;
  t.s_frame_bytes <- t.s_frame_bytes + (total - 4);
  t.s_wire_bytes <- t.s_wire_bytes + total;
  flush t c;
  let b = backlog c in
  if b > 0 then begin
    t.s_parked <- t.s_parked + 1;
    (* A stall is the span from the park until the whole backlog drains;
       the stamp is taken only on the (rare) parked path. *)
    c.c_park_t <- Unix.gettimeofday ();
    t.s_max_backlog <- max t.s_max_backlog b;
    c.c_peak_backlog <- max c.c_peak_backlog b
  end

(* Nanoseconds since the wall-clock stamp [t0]. *)
let ns_since t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)

(* Write more of a parked frame; record the stall once it has drained. *)
let service_write t c =
  flush t c;
  if backlog c = 0 then Obs.Hist.record t.write_stalls (ns_since c.c_park_t)

(* Accept one inbound frame's round, before any of its entries lands. *)
let got_frame t c round =
  if round <> t.expect then
    failwith
      (Printf.sprintf "Net_poll: expected round %d, got %d" t.expect round);
  if c.c_got then failwith "Net_poll: duplicate frame in one round";
  c.c_got <- true

let rec pump c =
  match Wire.Frame.Decoder.next_body c.c_dec c.c_recv with
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
    let wfds = ref [] and rfds = ref [] in
    Array.iter
      (fun c ->
        if backlog c > 0 then wfds := c.c_wfd :: !wfds;
        if not c.c_got then rfds := c.c_rfd :: !rfds)
      t.conns;
    t.s_polls <- t.s_polls + 1;
    let sel_t0 = Unix.gettimeofday () in
    let readable, writable, _ = Unix.select !rfds !wfds [] stall_timeout in
    Obs.Hist.record t.select_waits (ns_since sel_t0);
    if readable = [] && writable = [] then
      failwith "Net_poll: stalled (nothing readable or writable)";
    List.iter (fun fd -> service_write t (Hashtbl.find t.writer_of fd)) writable;
    List.iter
      (fun fd ->
        let c = Hashtbl.find t.reader_of fd in
        if not c.c_got then begin
          service_read t c;
          if c.c_got then decr undone
        end)
      readable
  done;
  t.s_rounds <- t.s_rounds + 1

(* One round: stage each pair's frame straight from the loop's slots in the
   connection's outbound record, then take each inbound body against it
   back into the slots: a body that arrived as written leaves the edge's
   cells as they are, any other is parsed into them. The receivers are
   bound to a slots record once, on its first exchange; the loop reuses one
   record for a whole run. *)
let exchange t ~round (s : Wire.Frame.slots) =
  if t.closed then invalid_arg "Net_poll.exchange: closed";
  let mw0 = Gc.minor_words () in
  if t.bound != s then begin
    t.bound <- s;
    Array.iter
      (fun c ->
        c.c_recv <-
          Wire.Frame.edge_receive s ~src:c.c_src ~dst:c.c_dst ~on_round:(got_frame t c)
            c.c_out)
      t.conns
  end;
  t.expect <- round;
  Array.iter
    (fun c ->
      Wire.Frame.write_edge s ~round ~src:c.c_src ~dst:c.c_dst c.c_out;
      send_frame t c)
    t.conns;
  drive t;
  t.s_minor_words <- t.s_minor_words +. (Gc.minor_words () -. mw0)

let transport t =
  {
    Net.Transport.name = "poll";
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
