/* poll(2) for Qr_util.Sys_poll.

   The serving loops need readiness multiplexing that does not fall over
   at FD_SETSIZE the way select(2) does, and that can block indefinitely
   without a tick timeout.  The binding is deliberately tiny: the caller
   owns three parallel arrays (fd, interest mask, result mask) so a busy
   event loop re-polls without allocating, and errno handling is reduced
   to the one case the loop treats specially (EINTR).  poll(2) is POSIX,
   and the other stubs already assume a Unix host. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>

#include <poll.h>
#include <errno.h>
#include <stdlib.h>

/* Interest/result masks shared with Sys_poll: 1 = readable, 2 =
   writable, 4 = error (POLLERR | POLLHUP | POLLNVAL, result only).
   Returns the number of ready descriptors, -1 for EINTR, -2 for any
   other errno. */
CAMLprim value qr_util_poll(value v_fds, value v_events, value v_revents,
                            value v_timeout_ms)
{
  CAMLparam4(v_fds, v_events, v_revents, v_timeout_ms);
  mlsize_t n = Wosize_val(v_fds);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd *pfds;
  mlsize_t i;
  int r;

  pfds = (struct pollfd *)malloc(sizeof(struct pollfd) * (n ? n : 1));
  if (pfds == NULL) caml_failwith("Sys_poll.poll: out of memory");
  for (i = 0; i < n; i++) {
    int ev = Int_val(Field(v_events, i));
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = 0;
    if (ev & 1) pfds[i].events |= POLLIN;
    if (ev & 2) pfds[i].events |= POLLOUT;
    pfds[i].revents = 0;
  }

  caml_release_runtime_system();
  r = poll(pfds, (nfds_t)n, timeout);
  caml_acquire_runtime_system();

  if (r < 0) {
    int e = errno;
    free(pfds);
    CAMLreturn(Val_int(e == EINTR ? -1 : -2));
  }
  for (i = 0; i < n; i++) {
    int rv = 0;
    if (pfds[i].revents & POLLIN) rv |= 1;
    if (pfds[i].revents & POLLOUT) rv |= 2;
    if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) rv |= 4;
    Store_field(v_revents, i, Val_int(rv));
  }
  free(pfds);
  CAMLreturn(Val_int(r));
}
