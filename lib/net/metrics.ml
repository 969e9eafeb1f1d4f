(* Communication accounting of one session, filled from its recorder when
   the session retires. *)

type t = {
  rounds : int;
  honest_bits : int;
  honest_msgs : int;
  byz_bits : int;
  byz_msgs : int;
  label_bits : (string * int) list;
}

let of_obs ~rounds o =
  let c = Obs.counts o in
  {
    rounds;
    honest_bits = c.Obs.honest_bits;
    honest_msgs = c.Obs.honest_msgs;
    byz_bits = c.Obs.byz_bits;
    byz_msgs = c.Obs.byz_msgs;
    label_bits = Obs.label_bits o;
  }

let labels m = m.label_bits
