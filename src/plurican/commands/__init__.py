"""The commands of ``plurican``, one module each.

``plurican.commands.<command>``, the command's name with ``-`` as ``_``,
has one function, ``run(args)``: it takes the parsed command line and
returns the command's JSON document (without its ``schema``) and exit code.
`cli._run` imports only the module of the command it runs, and each module
imports only what its command runs, so a cold command compiles no other
command's code.
"""
