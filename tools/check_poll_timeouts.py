#!/usr/bin/env python3
"""Fails when a poll(), ppoll() or epoll_wait() call passes a positive
literal timeout.

The lapxd front ends must never depend on a timer quantum: every wait is a
poll on file descriptors with timeout -1 (block until an fd is readable) or
0 (a non-blocking probe).  Run from the repo root:

    python3 tools/check_poll_timeouts.py src/service
    python3 tools/check_poll_timeouts.py --self-test
"""

import pathlib
import re
import sys

CALL = re.compile(r"\b(poll|ppoll|epoll_wait)\s*\(")
# The timeout's position: last argument of poll/epoll_wait, third of ppoll.
TIMEOUT_ARG = {"poll": -1, "epoll_wait": -1, "ppoll": 2}
POSITIVE_LITERAL = re.compile(r"(?<![\w.-])0*[1-9][0-9']*[uUlL]*\b")


def strip_comments(text):
    """Blanks comments, keeping newlines so line numbers survive."""
    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))
    return re.sub(r"//[^\n]*|/\*.*?\*/", blank, text, flags=re.S)


def split_args(text, start):
    """Top-level arguments of the call whose '(' is at text[start - 1]."""
    depth, args, current = 1, [], []
    for ch in text[start:]:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                args.append("".join(current))
                return args
        if ch == "," and depth == 1:
            args.append("".join(current))
            current = []
        else:
            current.append(ch)
    return None  # unbalanced: not a call we can read


def violations(text, name="<text>"):
    code = strip_comments(text)
    found = []
    for m in CALL.finditer(code):
        args = split_args(code, m.end())
        if not args or len(args) < 3:
            continue  # a declaration or mention, not a three-argument call
        timeout = args[TIMEOUT_ARG[m.group(1)]].strip()
        if POSITIVE_LITERAL.search(timeout):
            line = code.count("\n", 0, m.start()) + 1
            found.append(f"{name}:{line}: {m.group(1)}() timeout {timeout!r}")
    return found


def self_test():
    bad = [
        "::poll(&pfd, 1, 100);",
        "poll(fds, 2,\n     /*timeout_ms=*/250);",
        "epoll_wait(ep, evs, 8, 5);",
        "ppoll(fds, 1, &(timespec){1, 0}, nullptr);",
    ]
    good = [
        "::poll(&pfd, 1, /*timeout_ms=*/-1);",
        "::poll(&pfd, 1, /*timeout_ms=*/0);",
        "poll(pfds, n, -1);  // was poll(pfds, n, 100)",
        "ppoll(fds, 1, nullptr, nullptr);",
        "client_->poll_line();",
    ]
    ok = all(violations(t) for t in bad) and not any(violations(t) for t in good)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    found = []
    for root in argv:
        for path in sorted(pathlib.Path(root).rglob("*")):
            if path.suffix in (".cpp", ".hpp", ".h", ".cc"):
                found += violations(path.read_text(), str(path))
    for line in found:
        print(line)
    if found:
        print("timed waits found: wait on file descriptors instead "
              "(timeout -1, or 0 for a probe)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
