(* Wire codecs: roundtrips and rejection of adversarial bytes. *)

open Wire

let roundtrip name w r v equal =
  Alcotest.check Alcotest.bool name true
    (match decode_full r (encode (w v)) with Some v' -> equal v v' | None -> false)

let test_scalars () =
  roundtrip "u8" w_u8 r_u8 200 ( = );
  roundtrip "u16" w_u16 r_u16 0xabcd ( = );
  roundtrip "bool t" w_bool r_bool true ( = );
  roundtrip "bool f" w_bool r_bool false ( = );
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
  roundtrip "pair" (w_pair w_bool w_bytes) (r_pair r_bool (r_bytes ())) (true, "yo") ( = );
  roundtrip "bits" w_bits (r_bits ()) (Bitstring.of_string "1101001") Bitstring.equal;
  roundtrip "empty bits" w_bits (r_bits ()) Bitstring.empty Bitstring.equal;
  Alcotest.check Alcotest.string "fixed is raw" "abc" (encode (w_fixed "abc"));
  Alcotest.check Alcotest.string "seq concatenates" "\001abc"
    (encode (seq [ w_bool true; w_fixed "abc" ]))

let none_is name r s =
  Alcotest.check Alcotest.bool name true (decode_full r s = None)

let test_adversarial () =
  none_is "truncated u16" r_u16 "\x01";
  none_is "trailing garbage" r_u8 "\x01\x02";
  none_is "bad bool" r_bool "\x07";
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
          (fun s -> ignore (decode_full (r_option (r_pair r_bool (r_bytes ()))) s));
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

let test_session_frame () =
  let frame =
    { Wire.Frame.round = 42; entries = [ (0, "alpha"); (7, ""); (3, "beta") ] }
  in
  (match Wire.Frame.decode (Wire.Frame.encode frame) with
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
    (Wire.Frame.decode (Wire.Frame.encode empty) = Some empty);
  (* Defensive: garbage and truncations decode to None, never raise. *)
  List.iter
    (fun s ->
      match Wire.Frame.decode s with
      | Some _ | None -> ())
    [ ""; "\xff"; "\x01\x05"; String.make 64 '\xee' ];
  Alcotest.check Alcotest.bool "truncated entry rejected" true
    (Wire.Frame.decode "\x00\x01\x03\x05ab" = None)

let prop_session_frame_roundtrip =
  QCheck.Test.make ~name:"session frame roundtrip" ~count:200
    QCheck.(pair small_nat (small_list (pair small_nat string)))
    (fun (round, entries) ->
      Wire.Frame.(decode (encode { round; entries })) = Some { Wire.Frame.round; entries })

(* ---- incremental frame-stream decoder ------------------------------------- *)

let u32_prefix body =
  let len = String.length body in
  Printf.sprintf "%c%c%c%c%s"
    (Char.chr ((len lsr 24) land 0xff))
    (Char.chr ((len lsr 16) land 0xff))
    (Char.chr ((len lsr 8) land 0xff))
    (Char.chr (len land 0xff))
    body

let stream_of frames =
  String.concat "" (List.map (fun f -> u32_prefix (Wire.Frame.encode f)) frames)

let drain dec =
  let rec go acc =
    match Wire.Frame.Decoder.next dec with
    | Ok (Some f) -> go (f :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error msg -> Error msg
  in
  go []

(* Feed [s] in chunks of [size] bytes, draining after every chunk. *)
let feed_chunked dec s size =
  let frames = ref [] in
  let err = ref None in
  let i = ref 0 in
  while !i < String.length s && !err = None do
    let k = min size (String.length s - !i) in
    Wire.Frame.Decoder.feed dec (String.sub s !i k);
    i := !i + k;
    match drain dec with
    | Ok fs -> frames := !frames @ fs
    | Error msg -> err := Some msg
  done;
  match !err with Some msg -> Error msg | None -> Ok !frames

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
      let dec = Wire.Frame.Decoder.create () in
      match feed_chunked dec s size with
      | Ok frames ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "chunk size %d recovers all frames" size)
            true (frames = sample_frames);
          Alcotest.check Alcotest.int
            (Printf.sprintf "chunk size %d leaves nothing buffered" size)
            0
            (Wire.Frame.Decoder.buffered dec)
      | Error msg -> Alcotest.fail msg)
    [ 1; 2; 3; 7; 64; String.length s ]

let test_decoder_truncation () =
  (* A prefix cut anywhere inside a frame is a clean "feed me more", at every
     possible cut point — decoding is total on truncation. *)
  let s = stream_of [ List.nth sample_frames 1 ] in
  for cut = 0 to String.length s - 1 do
    let dec = Wire.Frame.Decoder.create () in
    Wire.Frame.Decoder.feed dec (String.sub s 0 cut);
    match Wire.Frame.Decoder.next dec with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.fail (Printf.sprintf "cut %d: frame from prefix" cut)
    | Error msg -> Alcotest.fail (Printf.sprintf "cut %d: %s" cut msg)
  done

let test_decoder_oversize_and_garbage () =
  (* Declared length beyond the bound fails before any body arrives, and the
     error is sticky. *)
  let dec = Wire.Frame.Decoder.create ~max_frame:64 () in
  Wire.Frame.Decoder.feed dec (u32_prefix (String.make 65 'z'));
  (match Wire.Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized declared length accepted");
  Wire.Frame.Decoder.feed dec (stream_of [ List.hd sample_frames ]);
  (match Wire.Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "error not sticky");
  (* A well-formed prefix around an undecodable body also fails cleanly. *)
  let dec = Wire.Frame.Decoder.create () in
  Wire.Frame.Decoder.feed dec (u32_prefix "\xff\xff\xff\xff");
  match Wire.Frame.Decoder.next dec with
  | Error msg ->
      Alcotest.check Alcotest.string "body diagnostic" "undecodable frame body"
        msg
  | Ok _ -> Alcotest.fail "garbage body accepted"

let prop_decoder_chunked_roundtrip =
  QCheck.Test.make ~name:"frame stream roundtrip under random chunking"
    ~count:100
    QCheck.(
      pair
        (small_list (pair small_nat (small_list (pair small_nat string))))
        (int_range 1 17))
    (fun (raw, size) ->
      let frames =
        List.map (fun (round, entries) -> { Wire.Frame.round; entries }) raw
      in
      let dec = Wire.Frame.Decoder.create () in
      feed_chunked dec (stream_of frames) size = Ok frames)

(* ---- slot codec ≡ the list codec ----------------------------------------- *)

let frame_gen =
  QCheck.(pair small_nat (small_list (pair small_nat string)))

(* A random round as the loop keeps it: [live] slots (capacity a little
   larger) on [n] parties, distinct sids from 0..399 in random admission
   order — across the 1-/2-byte varint boundary — and sent matrices mixing
   silence, empty payloads, short ones and multi-KB ones. *)
type slot_case = { sc_n : int; sc_round : int; sc_slots : Wire.Frame.slots }

let slot_case_gen =
  QCheck.Gen.(
    fun st ->
      let n = int_range 2 4 st in
      let live = int_range 1 200 st in
      let cap = live + int_range 0 3 st in
      let round =
        if bool st then int_range 0 127 st else int_range 128 100_000 st
      in
      let pool = Array.init 400 Fun.id in
      for i = 399 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = pool.(i) in
        pool.(i) <- pool.(j);
        pool.(j) <- x
      done;
      let sids = Array.init cap (fun i -> pool.(i)) in
      let payload () =
        match int_range 0 19 st with
        | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 -> None
        | 8 | 9 -> Some ""
        | 10 -> Some (String.make (int_range 1024 4096 st) 'K')
        | _ -> Some (string_size ~gen:char (int_range 1 40) st)
      in
      let sent =
        Array.init cap (fun _ ->
            Array.init n (fun s ->
                Array.init n (fun d -> if s = d then None else payload ())))
      in
      let delivered =
        Array.init n (fun _ -> Array.init n (fun _ -> Array.make cap None))
      in
      {
        sc_n = n;
        sc_round = round;
        sc_slots = { Wire.Frame.live; sids; sent; delivered };
      })

let slot_case_arb =
  QCheck.make slot_case_gen ~print:(fun c ->
      Printf.sprintf "n=%d round=%d live=%d" c.sc_n c.sc_round
        c.sc_slots.Wire.Frame.live)

(* The edge's entries in admission order: what the list codec would carry. *)
let edge_entries (s : Wire.Frame.slots) ~src ~dst =
  List.filter_map
    (fun i ->
      Option.map (fun m -> (s.Wire.Frame.sids.(i), m)) s.Wire.Frame.sent.(i).(src).(dst))
    (List.init s.Wire.Frame.live Fun.id)

let prop_slot_codec_differential =
  QCheck.Test.make
    ~name:"slot codec: write_edge = encode, parse fills exactly the slots"
    ~count:60 slot_case_arb
    (fun { sc_n = n; sc_round = round; sc_slots = s } ->
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            let reference =
              Wire.Frame.encode { round; entries = edge_entries s ~src ~dst }
            in
            let size = Wire.Frame.edge_size s ~round ~src ~dst in
            let buf = Bytes.make (size + 5) '\xa5' in
            let fin = Wire.Frame.write_edge s ~round ~src ~dst buf 2 in
            ok :=
              !ok && size = String.length reference && fin = 2 + size
              && Bytes.sub_string buf 2 size = reference
              && Bytes.sub_string buf 0 2 = "\xa5\xa5"
              && Bytes.sub_string buf fin 3 = "\xa5\xa5\xa5";
            let rounds = ref [] in
            let sink =
              Wire.Frame.edge_sink s ~src ~dst ~on_round:(fun r ->
                  rounds := r :: !rounds)
            in
            ok := !ok && Wire.Frame.parse sink buf 2 fin && !rounds = [ round ]
          end
        done
      done;
      (* Every delivered cell equals the sent one (the diagonal and the
         slots past [live] stay [None]). *)
      Array.iteri
        (fun src row ->
          Array.iteri
            (fun dst col ->
              Array.iteri
                (fun i got ->
                  let want =
                    if src = dst || i >= s.Wire.Frame.live then None
                    else s.Wire.Frame.sent.(i).(src).(dst)
                  in
                  ok := !ok && got = want)
                col)
            row)
        s.Wire.Frame.delivered;
      !ok)

(* The one parser against an independent reference: the reader combinators
   ([r_varint], [r_list], [r_bytes]) over the frame grammar. On arbitrary
   bodies — valid frames, mutated ones, garbage — both accept the same
   bodies with the same content. *)
let reference_decode s =
  decode_full
    (fun cur ->
      let* round = r_varint cur in
      let* entries =
        r_list ~max:Wire.Frame.max_sessions (r_pair r_varint (r_bytes ())) cur
      in
      Some { Wire.Frame.round; entries })
    s

type event = Round of int | Entry of int * string

let recording_sink events =
  {
    Wire.Frame.on_round = (fun r -> events := Round r :: !events);
    on_entry =
      (fun sid buf off len ->
        events := Entry (sid, Bytes.sub_string buf off len) :: !events);
  }

let events_of_frame f =
  Round f.Wire.Frame.round
  :: List.map (fun (sid, m) -> Entry (sid, m)) f.Wire.Frame.entries

let body_gen =
  QCheck.Gen.(
    frequency
      [
        (1, string_size ~gen:char (int_range 0 40));
        ( 3,
          fun st ->
            let round, entries = QCheck.gen frame_gen st in
            let b = Bytes.of_string (Wire.Frame.encode { round; entries }) in
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

let prop_parse_matches_reference =
  QCheck.Test.make ~name:"parse = reader-combinator reference, all or nothing"
    ~count:500
    (QCheck.make body_gen ~print:String.escaped)
    (fun body ->
      let events = ref [] in
      let ok =
        Wire.Frame.parse (recording_sink events) (Bytes.of_string body) 0
          (String.length body)
      in
      match reference_decode body with
      | Some f -> ok && List.rev !events = events_of_frame f
      | None -> (not ok) && !events = [])

(* Arbitrary streams, cut into random chunks, through the sink parser:
   never raises, fails exactly when [Decoder.next] fails, and hands over
   exactly the frames [next] returns — none of a failing frame. *)
let prop_sink_stream_total =
  QCheck.Test.make ~name:"next_with: total, fails exactly when next fails"
    ~count:300
    QCheck.(
      pair
        (make
           Gen.(
             frequency
               [
                 (1, string_size ~gen:char (int_range 0 80));
                 ( 2,
                   map
                     (fun bodies ->
                       String.concat "" (List.map (fun b -> u32_prefix b) bodies))
                     (list_size (int_range 0 4) body_gen) );
               ])
           ~print:String.escaped)
        (int_range 1 17))
    (fun (stream, size) ->
      let a = Wire.Frame.Decoder.create ~max_frame:4096 () in
      let b = Wire.Frame.Decoder.create ~max_frame:4096 () in
      let events = ref [] in
      let sink = recording_sink events in
      let rec pump () =
        match Wire.Frame.Decoder.next_with b sink with
        | Ok true -> pump ()
        | Ok false -> Ok ()
        | Error msg -> Error msg
      in
      let err = ref None in
      let i = ref 0 in
      match
        while !i < String.length stream && !err = None do
          let k = min size (String.length stream - !i) in
          Wire.Frame.Decoder.feed b (String.sub stream !i k);
          i := !i + k;
          match pump () with Ok () -> () | Error msg -> err := Some msg
        done
      with
      | exception _ -> false
      | () -> (
          let via_sink = List.rev !events in
          match (feed_chunked a stream size, !err) with
          | Ok frames, None -> via_sink = List.concat_map events_of_frame frames
          | Error m, Some m' ->
              m = m'
              &&
              (* [feed_chunked] drops the frames decoded before the error;
                 re-decode the stream's good prefix to compare. *)
              let c = Wire.Frame.Decoder.create ~max_frame:4096 () in
              Wire.Frame.Decoder.feed c stream;
              let rec good acc =
                match Wire.Frame.Decoder.next c with
                | Ok (Some f) -> good (f :: acc)
                | Ok None | Error _ -> List.rev acc
              in
              via_sink = List.concat_map events_of_frame (good [])
          | _ -> false))

let test_edge_sink_order () =
  let live = 3 in
  let fresh () =
    {
      Wire.Frame.live;
      sids = [| 5; 200; 2 |];
      sent = [||];
      delivered = Array.init 2 (fun _ -> Array.init 2 (fun _ -> Array.make 4 None));
    }
  in
  let parse_into s entries =
    let body = Wire.Frame.encode { Wire.Frame.round = 7; entries } in
    Wire.Frame.parse
      (Wire.Frame.edge_sink s ~src:0 ~dst:1 ~on_round:ignore)
      (Bytes.of_string body) 0 (String.length body)
  in
  let s = fresh () in
  Alcotest.(check bool) "in-order frame parses" true
    (parse_into s [ (5, "a"); (2, "c") ]);
  Alcotest.(check (array (option string)))
    "fills exactly its slots"
    [| Some "a"; None; Some "c"; None |]
    s.Wire.Frame.delivered.(0).(1);
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
  (* A malformed body delivers nothing, even when its entries would fit. *)
  let s = fresh () in
  let body = Wire.Frame.encode { Wire.Frame.round = 7; entries = [ (5, "a") ] } in
  Alcotest.(check bool) "trailing byte rejected" false
    (Wire.Frame.parse
       (Wire.Frame.edge_sink s ~src:0 ~dst:1 ~on_round:ignore)
       (Bytes.of_string (body ^ "\x00"))
       0
       (String.length body + 1));
  Alcotest.(check (array (option string)))
    "nothing delivered" [| None; None; None; None |]
    s.Wire.Frame.delivered.(0).(1)

(* A faithful edge delivers each entry as the very value that was sent; an
   entry whose bytes differ from the sent payload (same length or not, or
   for a slot that sent nothing on this edge) is delivered as a fresh copy
   of the bytes that arrived, and [sent] is left as it was. *)
let test_edge_sink_delivers_sent () =
  let sent = [| "alpha"; "beta"; "gamma" |] in
  let s =
    {
      Wire.Frame.live = 4;
      sids = [| 10; 11; 12; 13 |];
      sent =
        Array.init 4 (fun i ->
            Array.init 2 (fun src ->
                Array.init 2 (fun dst ->
                    if src = 0 && dst = 1 && i < 3 then Some sent.(i) else None)));
      delivered = Array.init 2 (fun _ -> Array.init 2 (fun _ -> Array.make 4 None));
    }
  in
  let sent_cells = Array.init 4 (fun i -> s.Wire.Frame.sent.(i).(0).(1)) in
  let parse entries =
    let body = Wire.Frame.encode { Wire.Frame.round = 2; entries } in
    Alcotest.(check bool) "frame parses" true
      (Wire.Frame.parse
         (Wire.Frame.edge_sink s ~src:0 ~dst:1 ~on_round:ignore)
         (Bytes.of_string body) 0 (String.length body))
  in
  let got i = s.Wire.Frame.delivered.(0).(1).(i) in
  parse [ (10, "alpha"); (11, "beta"); (12, "gamma") ];
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "slot %d delivered as the sent value" i)
      true
      (got i == sent_cells.(i))
  done;
  parse [ (10, "alphA"); (11, "bet"); (12, "gamma"); (13, "extra") ];
  let fresh i want =
    Alcotest.(check (option string)) (Printf.sprintf "slot %d bytes" i) (Some want) (got i);
    Alcotest.(check bool)
      (Printf.sprintf "slot %d is a fresh copy" i)
      false
      (got i == sent_cells.(i))
  in
  fresh 0 "alphA";
  fresh 1 "bet";
  fresh 3 "extra";
  Alcotest.(check bool) "a matching entry is still the sent value" true
    (got 2 == sent_cells.(2));
  Array.iteri
    (fun i cell ->
      Alcotest.(check bool)
        (Printf.sprintf "sent slot %d untouched" i)
        true
        (s.Wire.Frame.sent.(i).(0).(1) == cell
        && cell = if i < 3 then Some sent.(i) else None))
    sent_cells

(* Like [feed_chunked], but through [feed_sub]: each chunk is planted at a
   non-zero offset of an oversized scratch (stale bytes around it) to prove
   the range — not the buffer — is what gets fed. *)
let feed_chunked_sub dec s size =
  let scratch = Bytes.make (size + 7) '\xee' in
  let frames = ref [] in
  let err = ref None in
  let i = ref 0 in
  while !i < String.length s && !err = None do
    let k = min size (String.length s - !i) in
    Bytes.blit_string s !i scratch 3 k;
    Wire.Frame.Decoder.feed_sub dec scratch 3 k;
    i := !i + k;
    match drain dec with
    | Ok fs -> frames := !frames @ fs
    | Error msg -> err := Some msg
  done;
  match !err with Some msg -> Error msg | None -> Ok !frames

let prop_feed_sub_differential =
  (* On arbitrary bytes — valid streams and garbage alike — [feed_sub]
     behaves exactly like [feed] under the same chunking. *)
  QCheck.Test.make ~name:"feed_sub = feed under random chunking" ~count:300
    QCheck.(pair string (int_range 1 17))
    (fun (s, size) ->
      let a = Wire.Frame.Decoder.create ~max_frame:4096 () in
      let b = Wire.Frame.Decoder.create ~max_frame:4096 () in
      feed_chunked a s size = feed_chunked_sub b s size
      && Wire.Frame.Decoder.buffered a = Wire.Frame.Decoder.buffered b)

let prop_feed_sub_stream_roundtrip =
  QCheck.Test.make ~name:"frame stream roundtrip via feed_sub" ~count:100
    QCheck.(pair (small_list frame_gen) (int_range 1 17))
    (fun (raw, size) ->
      let frames =
        List.map (fun (round, entries) -> { Wire.Frame.round; entries }) raw
      in
      let dec = Wire.Frame.Decoder.create () in
      feed_chunked_sub dec (stream_of frames) size = Ok frames)

let test_write_edge_edges () =
  (* Empty keep-alive frame: the 2-byte body every idle edge sends each
     round. *)
  let idle =
    {
      Wire.Frame.live = 1;
      sids = [| 3 |];
      sent = [| Array.make_matrix 2 2 None |];
      delivered = [||];
    }
  in
  Alcotest.check Alcotest.int "keep-alive edge_size" 2
    (Wire.Frame.edge_size idle ~round:0 ~src:0 ~dst:1);
  let buf = Bytes.make 4 'z' in
  Alcotest.check Alcotest.int "keep-alive write_edge end" 3
    (Wire.Frame.write_edge idle ~round:0 ~src:0 ~dst:1 buf 1);
  Alcotest.check Alcotest.string "keep-alive bytes placed" "z\x00\x00z"
    (Bytes.to_string buf);
  Alcotest.check_raises "write_edge negative round"
    (Invalid_argument "Wire.w_varint") (fun () ->
      ignore (Wire.Frame.write_edge idle ~round:(-1) ~src:0 ~dst:1 buf 0));
  Alcotest.check_raises "feed_sub bad range"
    (Invalid_argument "Wire.Frame.Decoder.feed_sub") (fun () ->
      Wire.Frame.Decoder.feed_sub (Wire.Frame.Decoder.create ()) buf 2 3);
  let sink = Wire.Frame.edge_sink idle ~src:0 ~dst:1 ~on_round:ignore in
  Alcotest.check_raises "parse bad range"
    (Invalid_argument "Wire.Frame.parse") (fun () ->
      ignore (Wire.Frame.parse sink buf 2 5))

let test_frame_at_exact_limit () =
  (* A frame of exactly [max_frame_bytes] is the largest the stream accepts:
     body = varint 0 (round) + varint 1 (count) + varint 0 (sid)
          + varint len (4 bytes here) + len payload bytes. *)
  let len = Wire.Frame.max_frame_bytes - 7 in
  let f = { Wire.Frame.round = 0; entries = [ (0, String.make len 'q') ] } in
  let body = Wire.Frame.encode f in
  Alcotest.check Alcotest.int "sized at the limit" Wire.Frame.max_frame_bytes
    (String.length body);
  let dec = Wire.Frame.Decoder.create () in
  Wire.Frame.Decoder.feed dec (u32_prefix body);
  (match drain dec with
  | Ok [ f' ] ->
      Alcotest.check Alcotest.bool "limit frame roundtrips" true (f' = f)
  | Ok _ -> Alcotest.fail "limit frame: wrong frame count"
  | Error msg -> Alcotest.fail msg);
  Alcotest.check Alcotest.int "nothing buffered" 0
    (Wire.Frame.Decoder.buffered dec);
  (* One byte more and the declared length is rejected before the body. *)
  let over = { f with Wire.Frame.entries = [ (0, String.make (len + 1) 'q') ] } in
  let dec = Wire.Frame.Decoder.create () in
  Wire.Frame.Decoder.feed dec (u32_prefix (Wire.Frame.encode over));
  match Wire.Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

let prop_decoder_garbage_total =
  (* Arbitrary bytes through the incremental decoder: [next] returns, it
     never raises — malformation is a value, not an exception. *)
  QCheck.Test.make ~name:"decoder total on garbage" ~count:300 QCheck.string
    (fun s ->
      let dec = Wire.Frame.Decoder.create ~max_frame:4096 () in
      match feed_chunked dec s 5 with Ok _ | Error _ -> true)

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
    Alcotest.test_case "write_edge: keep-alive and bad inputs" `Quick
      test_write_edge_edges;
    Alcotest.test_case "frame at exactly max_frame_bytes" `Quick
      test_frame_at_exact_limit;
    QCheck_alcotest.to_alcotest prop_slot_codec_differential;
    QCheck_alcotest.to_alcotest prop_feed_sub_differential;
    QCheck_alcotest.to_alcotest prop_feed_sub_stream_roundtrip;
    Alcotest.test_case "composites" `Quick test_composites;
    Alcotest.test_case "adversarial bytes" `Quick test_adversarial;
    Alcotest.test_case "session frames" `Quick test_session_frame;
    QCheck_alcotest.to_alcotest prop_session_frame_roundtrip;
    QCheck_alcotest.to_alcotest prop_varint_roundtrip;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_random_bytes_never_crash;
    QCheck_alcotest.to_alcotest prop_list_roundtrip;
    QCheck_alcotest.to_alcotest prop_parse_matches_reference;
    QCheck_alcotest.to_alcotest prop_sink_stream_total;
    Alcotest.test_case "edge_sink: admission order or Failure" `Quick
      test_edge_sink_order;
    Alcotest.test_case "edge_sink: a faithful entry is the sent value" `Quick
      test_edge_sink_delivers_sent;
  ]
