(** Values at stable int indices: the table a {!Runtime.post} payload
    indexes.

    A component that schedules many similar events (a wire or a link
    moving packets) builds its [int -> unit] callback once, {!add}s each
    event's value here and posts the index; the callback {!take}s the
    value back. Indices are recycled, so the table allocates only when it
    outgrows its arrays, and nothing assumes that values leave in the
    order they entered. *)

type 'a t

(** [create empty] is an empty table whose free cells hold [empty], a
    sentinel compared physically and never added; it allocates its arrays
    on the first {!add}. *)
val create : 'a -> 'a t

(** [add t v] stores [v] and returns its index. *)
val add : 'a t -> 'a -> int

(** [get t k] is the value at [k], left in place. *)
val get : 'a t -> int -> 'a

(** [take t k] frees index [k] and returns its value. Each index from
    {!add} is taken exactly once. *)
val take : 'a t -> int -> 'a

(** Values held. *)
val live : 'a t -> int
