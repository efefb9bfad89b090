type t = string

let mask32 = 0xFFFFFFFF

(* Process one 64-byte block starting at [off] in [msg], updating state.
   [w] is the caller's 80-slot schedule scratch (hoisted out of the
   per-block loop). Tuple digests sit on the engine's hot path and this
   build has no flambda, so the 80 rounds are fully unrolled into
   straight-line let-bound ints (no ref cells, no per-round closure
   call), the rotates are open-coded on already-masked words, and the
   bounds checks are elided — [w] is always 80 slots and [off + 63] is
   in range. The state renaming per round uses a single simultaneous
   [let ... and ...] so every right-hand side reads the previous
   round's values. *)
let process_block h w msg off =
  for i = 0 to 15 do
    let j = off + (i * 4) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get msg j) lsl 24)
      lor (Char.code (Bytes.unsafe_get msg (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get msg (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get msg (j + 3)))
  done;
  for i = 16 to 79 do
    (* All stored words are masked to 32 bits, so rotl-by-1 needs no mask
       before the right shift. *)
    let x =
      Array.unsafe_get w (i - 3)
      lxor Array.unsafe_get w (i - 8)
      lxor Array.unsafe_get w (i - 14)
      lxor Array.unsafe_get w (i - 16)
    in
    Array.unsafe_set w i (((x lsl 1) lor (x lsr 31)) land mask32)
  done;
  let a = h.(0) and b = h.(1) and c = h.(2) and d = h.(3) and e = h.(4) in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 0) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 1) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 2) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 3) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 4) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 5) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 6) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 7) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 8) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 9) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 10) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 11) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 12) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 13) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 14) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 15) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 16) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 17) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 18) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (lnot b land d)) + e + 0x5A827999 + Array.unsafe_get w 19) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 20) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 21) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 22) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 23) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 24) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 25) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 26) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 27) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 28) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 29) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 30) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 31) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 32) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 33) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 34) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 35) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 36) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 37) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 38) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0x6ED9EBA1 + Array.unsafe_get w 39) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 40) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 41) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 42) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 43) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 44) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 45) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 46) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 47) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 48) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 49) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 50) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 51) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 52) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 53) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 54) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 55) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 56) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 57) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 58) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + ((b land c) lor (b land d) lor (c land d)) + e + 0x8F1BBCDC + Array.unsafe_get w 59) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 60) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 61) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 62) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 63) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 64) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 65) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 66) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 67) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 68) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 69) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 70) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 71) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 72) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 73) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 74) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 75) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 76) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 77) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 78) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in
  let t = (((a lsl 5) lor (a lsr 27)) + (b lxor c lxor d) + e + 0xCA62C1D6 + Array.unsafe_get w 79) land mask32 in
  let br = ((b lsl 30) lor (b lsr 2)) land mask32 in
  let a = t and b = a and c = br and d = c and e = d in

  h.(0) <- (h.(0) + a) land mask32;
  h.(1) <- (h.(1) + b) land mask32;
  h.(2) <- (h.(2) + c) land mask32;
  h.(3) <- (h.(3) + d) land mask32;
  h.(4) <- (h.(4) + e) land mask32

(* Streaming context. Hashing dominates the provenance hot path, so the
   padded whole-message copy of the textbook formulation is replaced by a
   context that consumes input in place: full 64-byte blocks are processed
   straight out of the source (via the read-only [Bytes.unsafe_of_string]
   view of a string), and only the sub-block tail ever hits the 64-byte
   carry buffer. Nothing is allocated until [finish] builds the digest. *)
type ctx = {
  st : int array;  (* 5-word chaining state *)
  cw : int array;  (* 80-slot schedule scratch *)
  cbuf : Bytes.t;  (* partial-block carry, 64 bytes *)
  num : Bytes.t;  (* decimal rendering scratch for [add_int] *)
  mutable fill : int;  (* bytes pending in [cbuf] *)
  mutable total : int;  (* total message bytes fed *)
}

(* Wide enough for [string_of_int min_int] on a 64-bit build. *)
let num_width = 20

let init () =
  { st = Array.make 5 0; cw = Array.make 80 0; cbuf = Bytes.create 64;
    num = Bytes.create num_width; fill = 0; total = 0 }

let reset ctx =
  ctx.st.(0) <- 0x67452301;
  ctx.st.(1) <- 0xEFCDAB89;
  ctx.st.(2) <- 0x98BADCFE;
  ctx.st.(3) <- 0x10325476;
  ctx.st.(4) <- 0xC3D2E1F0;
  ctx.fill <- 0;
  ctx.total <- 0

(* Feed [len] bytes of [b] from [off]. [process_block] never writes to its
   message argument, so [b] may be a read-only view of a string. *)
let feed ctx b off len =
  ctx.total <- ctx.total + len;
  let pos = ref off and stop = off + len in
  if ctx.fill > 0 then begin
    let take = min (64 - ctx.fill) len in
    Bytes.blit b off ctx.cbuf ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := off + take;
    if ctx.fill = 64 then begin
      process_block ctx.st ctx.cw ctx.cbuf 0;
      ctx.fill <- 0
    end
  end;
  if ctx.fill = 0 then begin
    while stop - !pos >= 64 do
      process_block ctx.st ctx.cw b !pos;
      pos := !pos + 64
    done;
    let rem = stop - !pos in
    if rem > 0 then begin
      Bytes.blit b !pos ctx.cbuf 0 rem;
      ctx.fill <- rem
    end
  end

let add ctx s = feed ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finish ctx =
  (* Pad: 0x80, zeros to 56 mod 64, then the 8-byte big-endian bit count. *)
  Bytes.set ctx.cbuf ctx.fill '\x80';
  if ctx.fill >= 56 then begin
    Bytes.fill ctx.cbuf (ctx.fill + 1) (63 - ctx.fill) '\000';
    process_block ctx.st ctx.cw ctx.cbuf 0;
    Bytes.fill ctx.cbuf 0 56 '\000'
  end
  else Bytes.fill ctx.cbuf (ctx.fill + 1) (55 - ctx.fill) '\000';
  let bitlen = ctx.total * 8 in
  for k = 0 to 7 do
    Bytes.set ctx.cbuf (63 - k) (Char.chr ((bitlen lsr (8 * k)) land 0xFF))
  done;
  process_block ctx.st ctx.cw ctx.cbuf 0;
  let out = Bytes.create 20 in
  for i = 0 to 4 do
    for k = 0 to 3 do
      Bytes.set out ((i * 4) + k) (Char.chr ((ctx.st.(i) lsr (8 * (3 - k))) land 0xFF))
    done
  done;
  Bytes.unsafe_to_string out

(* Two contexts PER DOMAIN: one for the one-shot digests and one for the
   stream, so a stream's producer may take one-shot digests mid-stream
   (payload interning does). Per domain, not per process, because sharded
   runtimes digest concurrently from several domains. *)
let oneshot_key = Domain.DLS.new_key init
let stream_key = Domain.DLS.new_key init

type stream = ctx

let start () =
  let ctx = Domain.DLS.get stream_key in
  reset ctx;
  ctx

(* Render the non-positive [m] right-aligned before [pos] in [num] and
   return where it starts. Working on the non-positive magnitude covers
   [min_int] without overflow. *)
let rec put_digits num pos m =
  let pos = pos - 1 in
  Bytes.unsafe_set num pos (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits num pos (m / 10) else pos

let add_int ctx n =
  let pos = put_digits ctx.num num_width (if n < 0 then n else -n) in
  let pos =
    if n < 0 then begin
      Bytes.unsafe_set ctx.num (pos - 1) '-';
      pos - 1
    end
    else pos
  in
  feed ctx ctx.num pos (num_width - pos)

let digest_string s =
  let ctx = Domain.DLS.get oneshot_key in
  reset ctx;
  add ctx s;
  finish ctx

let digest_concat parts =
  let ctx = Domain.DLS.get oneshot_key in
  reset ctx;
  List.iteri
    (fun i part ->
      if i > 0 then add ctx "+";
      add ctx part)
    parts;
  finish ctx

let hex_digits = "0123456789abcdef"

let to_hex t =
  let out = Bytes.create 40 in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (b lsr 4));
      Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (b land 0xF)))
    t;
  Bytes.unsafe_to_string out

let to_raw t = t

let of_raw s =
  if String.length s <> 20 then invalid_arg "Sha1.of_raw: expected 20 bytes";
  s

let equal = String.equal
let compare = String.compare
let hash = Hashtbl.hash
let abbrev t = String.sub (to_hex t) 0 8
let pp fmt t = Format.pp_print_string fmt (abbrev t)
