"""The letter-by-letter substitution loop: the oracle for the code-word
kernel ``words._substitute_codes`` and the public ``substitute`` over it.

Every image letter is pushed onto one output stack, one at a time, each
checked against the top; an inverse letter walks its image backwards with
signs flipped inline."""

from __future__ import annotations


def letter_substitute(images, w):
    """Rewrite the letter word ``w`` through ``images``; generators absent
    from the mapping stay fixed.  The result is reduced."""
    get = images.get
    stack = []
    append = stack.append
    pop = stack.pop
    for gen, sign in w:
        img = get(gen)
        if img is None:
            if stack:
                top = stack[-1]
                if top[0] == gen and top[1] == -sign:
                    pop()
                    continue
            append((gen, sign))
        elif sign == 1:
            for letter in img:
                if stack:
                    top = stack[-1]
                    if top[0] == letter[0] and top[1] == -letter[1]:
                        pop()
                        continue
                append(letter)
        else:
            # pushing (g, -s) cancels a top of (g, s)
            for g, s in reversed(img):
                if stack:
                    top = stack[-1]
                    if top[0] == g and top[1] == s:
                        pop()
                        continue
                append((g, -s))
    return tuple(stack)
