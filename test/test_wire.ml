(* Wire codecs: roundtrips and rejection of adversarial bytes. *)

open Wire

let roundtrip name w r v equal =
  Alcotest.check Alcotest.bool name true
    (match decode_full r (encode (w v)) with Some v' -> equal v v' | None -> false)

let test_scalars () =
  roundtrip "u8" w_u8 r_u8 200 ( = );
  List.iter
    (fun v -> roundtrip (Printf.sprintf "varint %d" v) w_varint r_varint v ( = ))
    [ 0; 1; 127; 128; 300; 16384; 1 lsl 30; max_int ];
  Alcotest.check_raises "u8 range" (Invalid_argument "Wire.w_u8") (fun () ->
      ignore (encode (w_u8 256)));
  Alcotest.check_raises "varint negative" (Invalid_argument "Wire.w_varint") (fun () ->
      ignore (encode (w_varint (-1))));
  List.iter
    (fun (name, s) -> Alcotest.(check int) ("leading varint " ^ name) (-1) (leading_varint s))
    [ ("empty", ""); ("truncated", "\x80"); ("ten bytes", String.make 10 '\xff' ^ "\x00") ]

let test_composites () =
  roundtrip "bytes" w_bytes (r_bytes ()) "hello \x00 world" String.equal;
  roundtrip "empty bytes" w_bytes (r_bytes ()) "" String.equal;
  roundtrip "option some" (w_option w_bytes) (r_option (r_bytes ())) (Some "x") ( = );
  roundtrip "option none" (w_option w_bytes) (r_option (r_bytes ())) None ( = );
  roundtrip "list" (w_list w_varint) (r_list r_varint) [ 1; 2; 3; 500 ] ( = );
  roundtrip "pair" (w_pair w_u8 w_bytes) (r_pair r_u8 (r_bytes ())) (1, "yo") ( = );
  roundtrip "bits" w_bits (r_bits ()) (Bitstring.of_string "1101001") Bitstring.equal;
  roundtrip "empty bits" w_bits (r_bits ()) Bitstring.empty Bitstring.equal;
  Alcotest.check Alcotest.string "fixed is raw" "abc" (encode (w_fixed "abc"));
  Alcotest.check Alcotest.string "seq concatenates" "\001abc"
    (encode (seq [ w_u8 1; w_fixed "abc" ]))

let none_is name r s =
  Alcotest.check Alcotest.bool name true (decode_full r s = None)

let test_adversarial () =
  none_is "trailing garbage" r_u8 "\x01\x02";
  none_is "bad option tag" (r_option r_u8) "\x05\x01";
  none_is "truncated bytes" (r_bytes ()) "\x05ab";
  none_is "oversized bytes claim" (r_bytes ~max:4 ()) "\x10aaaaaaaaaaaaaaaa";
  none_is "huge varint claim" (r_bytes ()) "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff";
  none_is "list too long" (r_list ~max:2 r_u8) "\x03\x01\x02\x03";
  none_is "bits bad padding" (r_bits ()) "\x04\xff";
  none_is "bits truncated" (r_bits ()) "\x20\xaa";
  none_is "empty input for u8" r_u8 "";
  (* varint longer than 9 continuation bytes rejected *)
  none_is "varint overlong" r_varint "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(pair (int_bound max_int) string)
    (fun (v, rest) ->
      decode_full r_varint (encode (w_varint v)) = Some v
      && leading_varint (encode (w_varint v) ^ rest) = v)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:300 QCheck.string (fun s ->
      decode_full (r_bytes ()) (encode (w_bytes s)) = Some s)

let prop_random_bytes_never_crash =
  (* Decoders must be total on garbage. *)
  QCheck.Test.make ~name:"garbage never raises" ~count:500 QCheck.string (fun s ->
      let readers =
        [
          (fun s -> ignore (decode_full r_u8 s));
          (fun s -> ignore (decode_full r_varint s));
          (fun s -> ignore (decode_full (r_bytes ()) s));
          (fun s -> ignore (decode_full (r_list r_varint) s));
          (fun s -> ignore (decode_full (r_bits ()) s));
          (fun s -> ignore (decode_full (r_option (r_pair r_u8 (r_bytes ()))) s));
        ]
      in
      List.for_all
        (fun r ->
          match r s with () -> true | exception _ -> false)
        readers)

let prop_list_roundtrip =
  QCheck.Test.make ~name:"list of pairs roundtrip" ~count:200
    QCheck.(small_list (pair small_nat string))
    (fun l ->
      decode_full (r_list (r_pair r_varint (r_bytes ()))) (encode (w_list (w_pair w_varint w_bytes) l))
      = Some l)

(* ---- frame streams through the one reader -------------------------------- *)

let u32 len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

let u32_prefix body = u32 (String.length body) ^ body

let stream_of frames =
  String.concat "" (List.map (fun f -> u32_prefix (Wire.Frame.encode f)) frames)

(* ---- slot codec ≡ the reference encoding ---------------------------------- *)

let frame_gen =
  QCheck.(pair small_nat (small_list (pair small_nat string)))

(* A random round as the loop keeps it: [live] slots (capacity a little
   larger) on [n] parties, distinct sids from 0..399 in random admission
   order — across the 1-/2-byte varint boundary — and sent matrices
   (recipient-major, as the loop keeps them) mixing silence, empty
   payloads, short ones and multi-KB ones. *)
type slot_case = { sc_n : int; sc_round : int; sc_slots : Wire.Frame.slots }

(* [live] slots (capacity [cap]) on [n] parties, distinct sids from
   0..399 in random admission order and message matrices drawn from
   [payload]. *)
let gen_slots ~n ~live ~cap ~payload st =
  let pool = Array.init 400 Fun.id in
  for i = 399 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- x
  done;
  {
    Wire.Frame.live;
    sids = Array.init cap (fun i -> pool.(i));
    msgs =
      Array.init cap (fun _ ->
          Array.init n (fun d ->
              Array.init n (fun s -> if s = d then None else payload st)));
  }

(* [s] with every cell of a fresh message matrix set to junk: what a
   receiver's cells hold before a parsed frame lands in them. *)
let junk = Some "junk"

let junk_copy (s : Wire.Frame.slots) =
  let msgs = Array.map (Array.map (Array.map (fun _ -> junk))) s.Wire.Frame.msgs in
  { s with Wire.Frame.msgs }

(* [edge_receive] against an empty staged record: no body matches it, so
   every body is parsed. *)
let parse_receive s ~src ~dst ~on_round =
  Wire.Frame.edge_receive s ~src ~dst ~on_round (Wire.Frame.staged ())

let slot_case_gen =
  QCheck.Gen.(
    fun st ->
      let n = int_range 2 4 st in
      let live = int_range 1 200 st in
      let cap = live + int_range 0 3 st in
      let round =
        if bool st then int_range 0 127 st else int_range 128 100_000 st
      in
      let payload st =
        match int_range 0 19 st with
        | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> None
        | 8 | 9 -> Some ""
        | 10 -> Some (String.make (int_range 1024 4096 st) 'K')
        | _ -> Some (string_size ~gen:char (int_range 1 40) st)
      in
      { sc_n = n; sc_round = round; sc_slots = gen_slots ~n ~live ~cap ~payload st })

let slot_case_arb =
  QCheck.make slot_case_gen ~print:(fun c ->
      Printf.sprintf "n=%d round=%d live=%d" c.sc_n c.sc_round
        c.sc_slots.Wire.Frame.live)

(* The edge's entries in admission order: what the reference encoding carries. *)
let edge_entries (s : Wire.Frame.slots) ~src ~dst =
  List.filter_map
    (fun i ->
      Option.map (fun m -> (s.Wire.Frame.sids.(i), m)) s.Wire.Frame.msgs.(i).(dst).(src))
    (List.init s.Wire.Frame.live Fun.id)

(* The stream record [write_edge] staged in [st]: u32 prefix, then body. *)
let staged_record (st : Wire.Frame.staged) =
  Bytes.sub_string st.Wire.Frame.bytes st.Wire.Frame.first
    (st.Wire.Frame.stop - st.Wire.Frame.first)

let prop_slot_codec_differential =
  QCheck.Test.make
    ~name:"slot codec: write_edge = encode, parse fills exactly the slots"
    ~count:60 slot_case_arb
    (fun { sc_n = n; sc_round = round; sc_slots = s } ->
      let ok = ref true in
      let st = Wire.Frame.staged () in
      let got = junk_copy s in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            let reference =
              Wire.Frame.encode { round; entries = edge_entries s ~src ~dst }
            in
            Wire.Frame.write_edge s ~round ~src ~dst st;
            ok := !ok && staged_record st = u32_prefix reference;
            let rounds = ref [] in
            let receive =
              parse_receive got ~src ~dst ~on_round:(fun r -> rounds := r :: !rounds)
            in
            let buf = Bytes.of_string ("\xa5\xa5" ^ reference ^ "\xa5") in
            ok :=
              !ok
              && receive buf 2 (2 + String.length reference)
              && !rounds = [ round ]
          end
        done
      done;
      (* Every received cell equals the sent one (the diagonal and the
         slots past [live] keep their junk). *)
      Array.iteri
        (fun i mat ->
          Array.iteri
            (fun dst row ->
              Array.iteri
                (fun src cell ->
                  let want =
                    if src = dst || i >= s.Wire.Frame.live then junk
                    else s.Wire.Frame.msgs.(i).(dst).(src)
                  in
                  ok := !ok && cell = want)
                row)
            mat)
        got.Wire.Frame.msgs;
      !ok)

(* Every session below [all_live] is live at the reader: a frame whose sids
   increase and stay below it is one the reader takes whole. *)
let all_live = 400

(* A frame as the reader takes it: sids reduced below [all_live], each kept
   once, in increasing order. *)
let readable (round, entries) =
  {
    Wire.Frame.round;
    entries =
      List.sort_uniq
        (fun (a, _) (b, _) -> compare a b)
        (List.map (fun (sid, m) -> (sid mod all_live, m)) entries);
  }

(* A receiver on edge 0 -> 1 with sessions [0 .. all_live-1] live, parsing
   every body. [accept] is the acceptor the stream decoder hands bodies to;
   each body it takes is rebuilt from the round [on_round] saw and the
   cells it filled, in slot order, and pushed on [frames]. The cells start
   at [junk] and the round at [-1], and both are returned, so a caller can
   see that a refused body left them untouched. *)
let frame_reader () =
  let s =
    {
      Wire.Frame.live = all_live;
      sids = Array.init all_live Fun.id;
      msgs = Array.init all_live (fun _ -> Array.make_matrix 2 2 junk);
    }
  in
  let frames = ref [] and round = ref (-1) in
  let parse = parse_receive s ~src:0 ~dst:1 ~on_round:(fun r -> round := r) in
  let accept buf pos limit =
    parse buf pos limit
    &&
    let entries =
      List.filter_map
        (fun i -> Option.map (fun m -> (i, m)) s.Wire.Frame.msgs.(i).(1).(0))
        (List.init all_live Fun.id)
    in
    frames := { Wire.Frame.round = !round; entries } :: !frames;
    true
  in
  (accept, frames, s, round)

(* One body through [frame_reader]: the frame it read, [None] if refused. *)
let read_frame body =
  let accept, frames, _, _ = frame_reader () in
  if accept (Bytes.of_string body) 0 (String.length body) then Some (List.hd !frames)
  else None

(* Feed [s] in chunks of [size] bytes, each planted at offset 3 of a
   scratch with stale bytes around it (the range, not the buffer, is what
   gets fed), taking every complete body with [accept] after each chunk.
   [Some msg] is the decoder's error. *)
let feed_chunked dec accept s size =
  let scratch = Bytes.make (size + 7) '\xee' in
  let err = ref None and i = ref 0 in
  let rec pump () =
    match Wire.Frame.Decoder.next_body dec accept with
    | Ok true -> pump ()
    | Ok false -> ()
    | Error msg -> err := Some msg
  in
  while !i < String.length s && !err = None do
    let k = min size (String.length s - !i) in
    Bytes.blit_string s !i scratch 3 k;
    Wire.Frame.Decoder.feed_sub dec scratch 3 k;
    i := !i + k;
    pump ()
  done;
  !err

(* [s] through a fresh decoder into a fresh reader: the frames read and the
   bytes left buffered, or the decoder's error. *)
let decode_stream s size =
  let dec = Wire.Frame.Decoder.create () in
  let accept, frames, _, _ = frame_reader () in
  match feed_chunked dec accept s size with
  | None -> Ok (List.rev !frames, Wire.Frame.Decoder.buffered dec)
  | Some msg -> Error msg

let test_session_frame () =
  let frame =
    { Wire.Frame.round = 42; entries = [ (0, "alpha"); (3, "beta"); (7, "") ] }
  in
  (match read_frame (Wire.Frame.encode frame) with
  | Some f ->
      Alcotest.check Alcotest.int "round" 42 f.Wire.Frame.round;
      Alcotest.check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
        "entries preserve order" frame.Wire.Frame.entries f.Wire.Frame.entries
  | None -> Alcotest.fail "frame roundtrip");
  (* Empty keep-alive frames are tiny and roundtrip too. *)
  let empty = { Wire.Frame.round = 0; entries = [] } in
  Alcotest.check Alcotest.int "empty frame is 2 bytes" 2
    (String.length (Wire.Frame.encode empty));
  Alcotest.check Alcotest.bool "empty roundtrip" true
    (read_frame (Wire.Frame.encode empty) = Some empty);
  (* Defensive: garbage and truncations are refused, never raise. *)
  List.iter
    (fun s ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "%S refused" s)
        true
        (read_frame s = None))
    [ ""; "\xff"; "\x01\x05"; String.make 64 '\xee'; "\x00\x01\x03\x05ab" ]

let prop_session_frame_roundtrip =
  QCheck.Test.make ~name:"session frame roundtrip" ~count:200
    QCheck.(pair small_nat (small_list (pair small_nat string)))
    (fun raw ->
      let f = readable raw in
      read_frame (Wire.Frame.encode f) = Some f)

let sample_frames =
  [
    { Wire.Frame.round = 0; entries = [] };
    { Wire.Frame.round = 3; entries = [ (0, "alpha"); (5, "") ] };
    { Wire.Frame.round = 4; entries = [ (1, String.make 300 'x') ] };
    { Wire.Frame.round = 5; entries = List.init 20 (fun i -> (i, "p")) };
  ]

let test_decoder_split_boundaries () =
  let s = stream_of sample_frames in
  List.iter
    (fun size ->
      match decode_stream s size with
      | Ok (frames, left) ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "chunk size %d recovers all frames" size)
            true (frames = sample_frames);
          Alcotest.check Alcotest.int
            (Printf.sprintf "chunk size %d leaves nothing buffered" size)
            0 left
      | Error msg -> Alcotest.fail msg)
    [ 1; 2; 3; 7; 64; String.length s ]

let test_decoder_truncation () =
  (* A prefix cut anywhere inside a frame is a clean "feed me more", at every
     possible cut point — decoding is total on truncation. *)
  let s = stream_of [ List.nth sample_frames 1 ] in
  for cut = 0 to String.length s - 1 do
    match decode_stream (String.sub s 0 cut) (max cut 1) with
    | Ok ([], left) -> Alcotest.(check int) (Printf.sprintf "cut %d buffered" cut) cut left
    | Ok _ -> Alcotest.fail (Printf.sprintf "cut %d: frame from prefix" cut)
    | Error msg -> Alcotest.fail (Printf.sprintf "cut %d: %s" cut msg)
  done

let test_decoder_oversize_and_garbage () =
  (* A declared length beyond the bound fails before any body arrives, and
     the error is sticky. *)
  let over = Wire.Frame.max_frame_bytes + 1 in
  let dec = Wire.Frame.Decoder.create () in
  let accept, frames, _, _ = frame_reader () in
  Alcotest.(check (option string))
    "oversized declared length refused"
    (Some (Printf.sprintf "frame length %d exceeds max %d" over Wire.Frame.max_frame_bytes))
    (feed_chunked dec accept (u32 over ^ "zz") 64);
  Alcotest.(check (option string))
    "error sticky" (Some "frame length 16777217 exceeds max 16777216")
    (feed_chunked dec accept (stream_of [ List.hd sample_frames ]) 64);
  Alcotest.(check int) "nothing read" 0 (List.length !frames);
  (* A well-formed prefix around an undecodable body also fails cleanly. *)
  Alcotest.(check bool)
    "body diagnostic" true
    (decode_stream (u32_prefix "\xff\xff\xff\xff") 64 = Error "undecodable frame body")

let prop_decoder_chunked_roundtrip =
  QCheck.Test.make ~name:"frame stream roundtrip under random chunking"
    ~count:100
    QCheck.(
      pair
        (small_list (pair small_nat (small_list (pair small_nat string))))
        (int_range 1 17))
    (fun (raw, size) ->
      let frames = List.map readable raw in
      decode_stream (stream_of frames) size = Ok (frames, 0))

let test_frame_at_exact_limit () =
  (* A frame of exactly [max_frame_bytes] is the largest the stream accepts:
     body = varint 0 (round) + varint 1 (count) + varint 0 (sid)
          + varint len (4 bytes here) + len payload bytes. *)
  let len = Wire.Frame.max_frame_bytes - 7 in
  let f = { Wire.Frame.round = 0; entries = [ (0, String.make len 'q') ] } in
  let body = Wire.Frame.encode f in
  Alcotest.check Alcotest.int "sized at the limit" Wire.Frame.max_frame_bytes
    (String.length body);
  (match decode_stream (u32_prefix body) (4 + String.length body) with
  | Ok ([ f' ], left) ->
      Alcotest.check Alcotest.bool "limit frame roundtrips" true (f' = f);
      Alcotest.check Alcotest.int "nothing buffered" 0 left
  | Ok _ -> Alcotest.fail "limit frame: wrong frame count"
  | Error msg -> Alcotest.fail msg);
  (* One byte more and the declared length is rejected before the body. *)
  let over = { f with Wire.Frame.entries = [ (0, String.make (len + 1) 'q') ] } in
  match decode_stream (u32_prefix (Wire.Frame.encode over)) 64 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

(* Edge 0 -> 1's cells, slot by slot. *)
let edge01 (s : Wire.Frame.slots) = Array.map (fun m -> m.(1).(0)) s.Wire.Frame.msgs

(* The reader's one documented exception: a well-formed frame whose sids
   are not the live sessions in order. *)
let documented_failure = String.starts_with ~prefix:"Wire.Frame: session "

(* Arbitrary bytes through the decoder and the reader: malformation is a
   value, not an exception — the one exception is the reader's [Failure]
   on a well-formed frame whose sids are not the live sessions in order. *)
let prop_decoder_garbage_total =
  QCheck.Test.make ~name:"decoder total on garbage" ~count:300 QCheck.string
    (fun s ->
      match decode_stream s 5 with
      | Ok _ | Error _ -> true
      | exception Failure m -> documented_failure m)

(* The one parser against an independent reference: the reader combinators
   ([r_varint], [r_list], [r_bytes]) over the frame grammar. On arbitrary
   bodies — valid frames, mutated ones, garbage — [edge_receive] takes
   exactly the bodies the reference accepts, with the same round and
   entries, or raises [Failure] when their sids are not the live sessions
   in order; a body the reference refuses changes nothing: no [on_round]
   call, and every cell of the edge keeps its junk. *)
let reference_decode s =
  decode_full
    (fun cur ->
      let* round = r_varint cur in
      let* entries = r_list ~max:65536 (r_pair r_varint (r_bytes ())) cur in
      Some { Wire.Frame.round; entries })
    s

let body_gen =
  QCheck.Gen.(
    frequency
      [
        (1, string_size ~gen:char (int_range 0 40));
        ( 3,
          fun st ->
            let raw = QCheck.gen frame_gen st in
            let f = if bool st then readable raw else { Wire.Frame.round = fst raw; entries = snd raw } in
            let b = Bytes.of_string (Wire.Frame.encode f) in
            let len = Bytes.length b in
            if int_range 0 3 st = 0 then
              Bytes.set b (int_range 0 (len - 1) st)
                (Char.chr (int_range 0 255 st));
            let keep =
              if int_range 0 3 st = 0 then int_range 0 len st else len
            in
            Bytes.sub_string b 0 keep
            ^ if int_range 0 5 st = 0 then "\x00" else "" );
      ])

(* The sids increase and stay below [all_live]: the reader takes them all. *)
let rec in_order = function
  | (a, _) :: ((b, _) :: _ as rest) -> a < b && in_order rest
  | [ (a, _) ] -> a < all_live
  | [] -> true

let prop_parse_matches_reference =
  QCheck.Test.make ~name:"parse = reader-combinator reference, all or nothing"
    ~count:500
    (QCheck.make body_gen ~print:String.escaped)
    (fun body ->
      let accept, frames, s, round = frame_reader () in
      match
        (accept (Bytes.of_string body) 0 (String.length body), reference_decode body)
      with
      | true, Some f -> in_order f.Wire.Frame.entries && !frames = [ f ]
      | false, None -> !round = -1 && Array.for_all (( = ) junk) (edge01 s)
      | true, None | false, Some _ -> false
      | exception Failure m when documented_failure m -> (
          match reference_decode body with
          | Some f -> not (in_order f.Wire.Frame.entries)
          | None -> false))

(* Arbitrary streams through feed_sub -> next_body -> edge_receive, cut at
   random: garbage, frames valid and mutated, and u32 prefixes that declare
   anything up to 2^32 - 1 bytes, with at most a few bytes of body behind
   them. The reader never raises but for its documented [Failure] (after
   which the stream goes on: that frame is consumed), and the words it
   allocates (minor + major - promoted) stay within

     64 + 4.5 * fed + 64 * failures   (failures <= fed / 8),

   linear in the bytes fed:
   - the decoder's buffer grows only with bytes fed, never with a declared
     length: a growth to capacity c happens when the bytes held plus the
     chunk exceed the old capacity, and c = max (need, 2 * old) <= 2 * fed;
     capacities at least double, so all growths together allocate at most
     4 * fed bytes, fed / 2 words (each growth's header in the 64);
   - each accepted entry is copied once: an entry of an l-byte payload
     spans at least l + 2 body bytes and allocates [Some] (2 words) and a
     string of at most l / 8 + 2 words, at most 2 words per byte: 2 * fed;
   - after a sticky error, each [next_body] call returns a fresh [Error]
     (2 words), one call per chunk of at least one byte: 2 * fed;
   - each [Failure] allocates its message (measured at 16 words; 64
     allowed), and a failing frame spans at least 8 bytes (u32 prefix,
     round, count, sid, length). *)
let stream_gen =
  QCheck.Gen.(
    let segment =
      frequency
        [
          (2, string_size ~gen:char (int_range 0 40));
          (4, map u32_prefix body_gen);
          ( 1,
            fun st ->
              let declared =
                if bool st then int_range (Wire.Frame.max_frame_bytes + 1) 0xffff_ffff st
                else int_range 0 Wire.Frame.max_frame_bytes st
              in
              u32 declared ^ string_size ~gen:char (int_range 0 8) st );
        ]
    in
    pair
      (map (String.concat "") (list_size (int_range 0 8) segment))
      (list_size (int_range 1 8) (int_range 1 64)))

let prop_reader_allocation_bounded =
  QCheck.Test.make
    ~name:"feed_sub -> next_body -> edge_receive: total, allocation linear in bytes fed"
    ~count:300
    (QCheck.make stream_gen ~print:(fun (s, cuts) ->
         Printf.sprintf "%S cut by %s" s (String.concat "," (List.map string_of_int cuts))))
    (fun (stream, cuts) ->
      (* The chunks, each its own buffer, cut before the measured span: the
         sizes cycle through [cuts]. *)
      let rec chunks pos cs acc =
        if pos >= String.length stream then List.rev acc
        else
          let c, cs = match cs with c :: cs -> (c, cs) | [] -> (List.hd cuts, List.tl cuts) in
          let k = min c (String.length stream - pos) in
          chunks (pos + k) cs (Bytes.of_string (String.sub stream pos k) :: acc)
      in
      let chunks = chunks 0 cuts [] in
      let s =
        {
          Wire.Frame.live = all_live;
          sids = Array.init all_live Fun.id;
          msgs = Array.init all_live (fun _ -> Array.make_matrix 2 2 None);
        }
      in
      let dec = Wire.Frame.Decoder.create () in
      let accept = parse_receive s ~src:0 ~dst:1 ~on_round:ignore in
      let failures = ref 0 in
      let rec pump () =
        match Wire.Frame.Decoder.next_body dec accept with
        | Ok true -> pump ()
        | Ok false | Error _ -> ()
        | exception Failure m when documented_failure m ->
            incr failures;
            pump ()
      in
      let words () =
        let minor, promoted, major = Gc.counters () in
        minor +. major -. promoted
      in
      let w0 = words () in
      List.iter
        (fun b ->
          Wire.Frame.Decoder.feed_sub dec b 0 (Bytes.length b);
          pump ())
        chunks;
      let used = words () -. w0 in
      let fed = float_of_int (String.length stream) in
      used <= 64. +. (4.5 *. fed) +. (64. *. float_of_int !failures))

let test_edge_sink_order () =
  let live = 3 in
  let fresh () =
    {
      Wire.Frame.live;
      sids = [| 5; 200; 2 |];
      msgs = Array.init 4 (fun _ -> Array.make_matrix 2 2 junk);
    }
  in
  let parse_into s entries =
    let body = Wire.Frame.encode { Wire.Frame.round = 7; entries } in
    parse_receive s ~src:0 ~dst:1 ~on_round:ignore (Bytes.of_string body) 0
      (String.length body)
  in
  let s = fresh () in
  Alcotest.(check bool) "in-order frame parses" true
    (parse_into s [ (5, "a"); (2, "c") ]);
  Alcotest.(check (array (option string)))
    "fills exactly its live slots, clearing the silent one"
    [| Some "a"; None; Some "c"; junk |]
    (edge01 s);
  let misplaced name entries =
    match parse_into (fresh ()) entries with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Failure _ -> ()
  in
  misplaced "out of admission order" [ (200, "b"); (5, "a") ];
  misplaced "not live" [ (5, "a"); (7, "x") ];
  misplaced "repeated sid" [ (5, "a"); (5, "a") ];
  misplaced "past the live set" [ (2, "c"); (5, "a") ];
  (* A slot beyond [live] is not live, even when [sids] has room for it. *)
  let s = fresh () in
  s.Wire.Frame.sids.(0) <- 5;
  misplaced "retired slot" [ (99, "z") ];
  (* A malformed body changes nothing, even when its entries would fit. *)
  let s = fresh () in
  let body = Wire.Frame.encode { Wire.Frame.round = 7; entries = [ (5, "a") ] } in
  Alcotest.(check bool) "trailing byte rejected" false
    (parse_receive s ~src:0 ~dst:1 ~on_round:ignore
       (Bytes.of_string (body ^ "\x00"))
       0
       (String.length body + 1));
  Alcotest.(check (array (option string)))
    "nothing changed" [| junk; junk; junk; junk |] (edge01 s)

(* Four slots sending [sent_values] on edge 0 -> 1 (slot 3 silent), written
   into a staged record, as a poll connection does. *)
let sent_values = [| "alpha"; "beta"; "gamma" |]

let faithful_case () =
  let s =
    {
      Wire.Frame.live = 4;
      sids = [| 10; 11; 12; 13 |];
      msgs =
        Array.init 4 (fun i ->
            Array.init 2 (fun dst ->
                Array.init 2 (fun src ->
                    if src = 0 && dst = 1 && i < 3 then Some sent_values.(i) else None)));
    }
  in
  let st = Wire.Frame.staged () in
  Wire.Frame.write_edge s ~round:2 ~src:0 ~dst:1 st;
  (s, st)

(* [edge_receive] on [body], laid at offset 3 of a larger buffer. *)
let receive s st ?(on_round = ignore) body =
  let buf = Bytes.of_string ("xyz" ^ body ^ "w") in
  Wire.Frame.edge_receive s ~src:0 ~dst:1 ~on_round st buf 3 (3 + String.length body)

(* Each of edge 0 -> 1's cells is physically [cells.(i)]. *)
let cells_are s cells =
  Array.for_all2 (fun cell old -> cell == old) (edge01 s) cells

(* A frame that arrives as written leaves each cell as the very value that
   was sent; a frame whose bytes differ anywhere is parsed, and every entry
   of it, matching or not, is a fresh copy of the bytes that arrived. *)
let test_edge_sink_delivers_sent () =
  let s, st = faithful_case () in
  let sent_cells = edge01 s in
  let body entries = Wire.Frame.encode { Wire.Frame.round = 2; entries } in
  Alcotest.(check bool) "frame as written accepted" true
    (receive s st (body [ (10, "alpha"); (11, "beta"); (12, "gamma") ]));
  Alcotest.(check bool) "every slot keeps the sent value" true (cells_are s sent_cells);
  Alcotest.(check bool) "other frame parses" true
    (receive s st (body [ (10, "alphA"); (11, "bet"); (12, "gamma"); (13, "extra") ]));
  let fresh i want =
    let got = s.Wire.Frame.msgs.(i).(1).(0) in
    Alcotest.(check (option string)) (Printf.sprintf "slot %d bytes" i) (Some want) got;
    Alcotest.(check bool)
      (Printf.sprintf "slot %d is a fresh copy" i)
      false
      (got == sent_cells.(i))
  in
  fresh 0 "alphA";
  fresh 1 "bet";
  fresh 2 "gamma";
  fresh 3 "extra"

let test_write_edge_edges () =
  (* Empty keep-alive frame: the 2-byte body every idle edge sends each
     round. *)
  let idle =
    {
      Wire.Frame.live = 1;
      sids = [| 3 |];
      msgs = [| Array.make_matrix 2 2 None |];
    }
  in
  let st = Wire.Frame.staged () in
  Wire.Frame.write_edge idle ~round:0 ~src:0 ~dst:1 st;
  Alcotest.check Alcotest.string "keep-alive record" "\x00\x00\x00\x02\x00\x00"
    (staged_record st);
  Alcotest.check_raises "write_edge negative round"
    (Invalid_argument "Wire.w_varint") (fun () ->
      Wire.Frame.write_edge idle ~round:(-1) ~src:0 ~dst:1 st);
  let buf = Bytes.make 4 'z' in
  Alcotest.check_raises "feed_sub bad range"
    (Invalid_argument "Wire.Frame.Decoder.feed_sub") (fun () ->
      Wire.Frame.Decoder.feed_sub (Wire.Frame.Decoder.create ()) buf 2 3)

(* Both paths of [edge_receive] on hand-made bodies. *)
let test_edge_receive_paths () =
  let s, st = faithful_case () in
  let rounds = ref [] in
  let on_round r = rounds := r :: !rounds in
  let written =
    let r = staged_record st in
    String.sub r 4 (String.length r - 4)
  in
  let sent_cells = edge01 s in
  Alcotest.(check bool) "as written: accepted" true (receive s st ~on_round written);
  Alcotest.(check (list int)) "as written: on_round ran" [ 2 ] !rounds;
  Alcotest.(check bool) "as written: cells untouched" true (cells_are s sent_cells);
  (* Compared, not parsed: a hundred bodies as written allocate nothing. *)
  let body = Bytes.of_string written in
  let accept = Wire.Frame.edge_receive s ~src:0 ~dst:1 ~on_round:ignore st in
  let m0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (accept body 0 (Bytes.length body) : bool)
  done;
  Alcotest.(check (float 0.)) "as written: no allocation" 0. (Gc.minor_words () -. m0);
  (* Same length, one byte off: parsed, every entry a copy. *)
  let off_by_one = Bytes.of_string written in
  let last = Bytes.length off_by_one - 1 in
  Bytes.set off_by_one last 'A';
  Alcotest.(check bool) "one byte off: parsed" true
    (receive s st ~on_round (Bytes.to_string off_by_one));
  Alcotest.(check (array (option string)))
    "one byte off: the bytes that arrived"
    [| Some "alpha"; Some "beta"; Some "gammA"; None |]
    (edge01 s);
  let received = edge01 s in
  (* Same length, malformed: refused, nothing changed. *)
  let bad = Bytes.of_string written in
  Bytes.set bad 1 '\x09';
  Alcotest.(check bool) "malformed: refused" false
    (receive s st ~on_round (Bytes.to_string bad));
  Alcotest.(check bool) "malformed: nothing changed" true (cells_are s received);
  (* The round check runs on both paths. *)
  let expect r got = if got <> r then failwith (Printf.sprintf "round %d" got) in
  let wrong = Wire.Frame.encode { Wire.Frame.round = 3; entries = [ (10, "alpha") ] } in
  Alcotest.check_raises "wrong round, parsed" (Failure "round 3") (fun () ->
      ignore (receive s st ~on_round:(expect 2) wrong));
  Alcotest.check_raises "wrong round, as written" (Failure "round 2") (fun () ->
      ignore (receive s st ~on_round:(expect 5) written));
  Alcotest.(check bool) "nothing changed on a raise" true (cells_are s received);
  Alcotest.check_raises "bad range"
    (Invalid_argument "Wire.Frame.edge_receive") (fun () ->
      ignore
        (Wire.Frame.edge_receive s ~src:0 ~dst:1 ~on_round:ignore st (Bytes.create 4) 2 5))

(* A round on 2-4 parties with 0-70 live sessions: silent cells, empty and
   short payloads, sids across the one-/two-byte varint boundary. *)
let receive_case_gen =
  QCheck.Gen.(
    fun st ->
      let n = int_range 2 4 st in
      let live = int_range 0 70 st in
      let round = int_range 0 (1 lsl 16) st in
      let payload st =
        match int_range 0 9 st with
        | 0 | 1 | 2 | 3 -> None
        | 4 | 5 -> Some ""
        | _ -> Some (string_size ~gen:char (int_range 1 30) st)
      in
      { sc_n = n; sc_round = round; sc_slots = gen_slots ~n ~live ~cap:(live + 1) ~payload st })

(* The cells the round loop delivers from are the same whether each frame
   is taken as written or parsed entry by entry into cells that start as
   junk, and as written they are the sent values themselves. *)
let prop_receive_differential =
  QCheck.Test.make ~name:"edge_receive = entry-wise parse: same inboxes" ~count:200
    (QCheck.make receive_case_gen ~print:(fun c ->
         Printf.sprintf "n=%d round=%d live=%d" c.sc_n c.sc_round
           c.sc_slots.Wire.Frame.live))
    (fun { sc_n = n; sc_round = round; sc_slots = s } ->
      let sent = Array.map (Array.map Array.copy) s.Wire.Frame.msgs in
      let parsed = junk_copy s in
      let st = Wire.Frame.staged () in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            Wire.Frame.write_edge s ~round ~src ~dst st;
            let body = Bytes.of_string (staged_record st) in
            let limit = Bytes.length body in
            let seen = ref [] in
            let on_round r = seen := r :: !seen in
            ok :=
              !ok
              && Wire.Frame.edge_receive s ~src ~dst ~on_round st body 4 limit
              && parse_receive parsed ~src ~dst ~on_round body 4 limit
              && !seen = [ round; round ]
          end
        done
      done;
      for i = 0 to s.Wire.Frame.live - 1 do
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if src <> dst then begin
              let as_written = s.Wire.Frame.msgs.(i).(dst).(src) in
              ok :=
                !ok
                && as_written == sent.(i).(dst).(src)
                && as_written = parsed.Wire.Frame.msgs.(i).(dst).(src)
            end
          done
        done
      done;
      !ok)

(* One staged record reused across frames of growing and shrinking size,
   as a connection reuses it round after round: every record is the
   reference encoding behind its u32 prefix, keep-alive empties and rounds
   of three varint bytes (>= 2^14) included. *)
let prop_write_edge_reuse =
  QCheck.Test.make ~name:"write_edge = encode on a reused staged record" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 6)
           (fun st ->
             let n = 2 in
             let live = int_range 0 150 st in
             let round =
               match int_range 0 2 st with
               | 0 -> int_range 0 127 st
               | 1 -> int_range (1 lsl 14) ((1 lsl 21) - 1) st
               | _ -> int_range (1 lsl 21) (1 lsl 30) st
             in
             let silent = bool st in
             let payload st =
               if silent || int_range 0 2 st = 0 then None
               else Some (string_size ~gen:char (int_range 0 300) st)
             in
             (round, gen_slots ~n ~live ~cap:(max live 1) ~payload st))))
    (fun frames ->
      let st = Wire.Frame.staged () in
      List.for_all
        (fun (round, s) ->
          Wire.Frame.write_edge s ~round ~src:0 ~dst:1 st;
          staged_record st
          = u32_prefix (Wire.Frame.encode { round; entries = edge_entries s ~src:0 ~dst:1 }))
        frames)

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "incremental decoder: split boundaries" `Quick
      test_decoder_split_boundaries;
    Alcotest.test_case "incremental decoder: truncation at every cut" `Quick
      test_decoder_truncation;
    Alcotest.test_case "incremental decoder: oversize and garbage" `Quick
      test_decoder_oversize_and_garbage;
    QCheck_alcotest.to_alcotest prop_decoder_chunked_roundtrip;
    QCheck_alcotest.to_alcotest prop_decoder_garbage_total;
    QCheck_alcotest.to_alcotest prop_reader_allocation_bounded;
    Alcotest.test_case "write_edge: keep-alive and bad inputs" `Quick
      test_write_edge_edges;
    Alcotest.test_case "frame at exactly max_frame_bytes" `Quick
      test_frame_at_exact_limit;
    QCheck_alcotest.to_alcotest prop_slot_codec_differential;
    Alcotest.test_case "composites" `Quick test_composites;
    Alcotest.test_case "adversarial bytes" `Quick test_adversarial;
    Alcotest.test_case "session frames" `Quick test_session_frame;
    QCheck_alcotest.to_alcotest prop_session_frame_roundtrip;
    QCheck_alcotest.to_alcotest prop_varint_roundtrip;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_random_bytes_never_crash;
    QCheck_alcotest.to_alcotest prop_list_roundtrip;
    QCheck_alcotest.to_alcotest prop_parse_matches_reference;
    Alcotest.test_case "edge_sink: admission order or Failure" `Quick
      test_edge_sink_order;
    Alcotest.test_case "edge_sink: a faithful entry is the sent value" `Quick
      test_edge_sink_delivers_sent;
    Alcotest.test_case "edge_receive: as written unparsed, else entry-wise"
      `Quick test_edge_receive_paths;
    QCheck_alcotest.to_alcotest prop_receive_differential;
    QCheck_alcotest.to_alcotest prop_write_edge_reuse;
  ]
